"""CLI surface: exit codes, report files, round-trips, env overrides."""
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import eulersum
from eulersum import catalog
from eulersum.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_both_methods(capsys):
    code, out, _ = run(["eval", "eq2.13", "--a", "1", "--k", "1", "--m", "1",
                        "--method", "both"], capsys)
    assert code == 0
    assert "closed" in out and "truncated" in out
    assert "value=1 " in out


@pytest.mark.parametrize("argv, seconds", [
    (["eq2.13", "--a", "0.5", "--k", "100000", "--m", "3"], 0.5),
    (["eq2.22", "--a", "0.5", "--k", "1000000"], 4.0),
    (["eq4.7", "--a", "1", "--k", "1000000", "--m", "2"], 4.0),
])
def test_eval_closed_large_window_in_bounded_time(argv, seconds, capsys):
    # O(k) window sums: about 0.1, 0.8 and 0.8 s on a 2-core x86-64 host;
    # the O(k^2) forms they replaced ran past 60 s on each
    t0 = time.perf_counter()
    code, out, _ = run(["eval", *argv, "--method", "closed"], capsys)
    assert time.perf_counter() - t0 < seconds
    assert code == 0 and "closed" in out


def test_eval_telescoping(capsys):
    code, out, _ = run(["eval", "eq1.28", "--a", "1", "--s", "1"], capsys)
    assert code == 0
    assert "value=1 " in out


def test_eval_resonance_diagnostic(capsys):
    code, _, err = run(["eval", "eq3.9", "--a", "2", "--b", "1", "--k", "1", "--p", "1"],
                       capsys)
    assert code == 2
    assert "resonance" in err


def test_eval_unknown_identity(capsys):
    code, _, err = run(["eval", "eq9.9", "--a", "1"], capsys)
    assert code == 2
    assert "unknown identity" in err


@pytest.mark.parametrize("argv, flag", [
    (["eq2.13", "--a", "1", "--k", "1.5", "--m", "1"], "--k"),
    (["eq4.13", "--a", "1.5", "--k", "2", "--m", "1"], "--a"),  # an integer shift
])
def test_eval_non_integer_for_declared_integer_exits_2(argv, flag, capsys):
    code, out, err = run(["eval", *argv], capsys)
    assert code == 2 and out == ""
    assert f"parameter {flag} must be an integer" in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ["eval", "eq2.13", "--a", "1", "--k", "1", "--m", "1", "--method", "both"],
    ["verify", "--identity", "eq2.13"],
])
def test_tol_must_be_finite_and_positive(argv, tol, capsys):
    # a zero tol made every verify case INCONCLUSIVE and inf certified any
    # oracle value, each with exit 0; now argparse refuses them
    code, out, err = run([*argv, f"--tol={tol}"], capsys)
    assert code == 2 and out == ""
    assert "argument --tol: must be a finite number > 0" in err
    code, out, _ = run([*argv, "--tol=1e-6"], capsys)
    assert code == 0 and "INCONCLUSIVE" not in out


def test_eval_missing_params(capsys):
    code, _, err = run(["eval", "eq2.13", "--a", "1"], capsys)
    assert code == 2
    assert "requires parameters" in err


def test_verify_single_identity_writes_json(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run(["verify", "--identity", "eq2.14", "--out", str(out_file)], capsys)
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["schema_version"] == "3"
    assert payload["config"]["min_terms"] == 4096
    assert payload["summary"]["confirmed"] == len(payload["records"])
    assert payload["summary"]["refuted"] == 0
    for rec in payload["records"]:
        assert rec["status"] == "CONFIRMED"
        assert rec["identity"] == "eq2.14"
        assert rec["oracle_error_bound"] <= rec["abs_residual"] + 1e-8
        assert 4096 <= rec["terms"] <= payload["config"]["max_terms"]
        assert rec["reason"] == ""


def test_verify_as_printed_reports_refutation_and_exits_zero(tmp_path, capsys):
    out_file = tmp_path / "ref.json"
    code, out, _ = run(["verify", "--identity", "eq2.9", "--variant", "as-printed",
                        "--out", str(out_file)], capsys)
    assert code == 0  # expected findings, not regressions
    payload = json.loads(out_file.read_text())
    assert [r["status"] for r in payload["records"]] == ["REFUTED"]
    assert payload["records"][0]["params"] == {"a": 1.0, "b": 2.0}
    assert payload["records"][0]["abs_residual"] == pytest.approx(1.25, abs=1e-9)


def test_verify_unknown_identity_exits_2(capsys):
    code, _, err = run(["verify", "--identity", "eq9.9"], capsys)
    assert code == 2
    assert "unknown identity" in err


def test_verify_csv_json_numeric_equality(tmp_path, capsys):
    jf, cf = tmp_path / "r.json", tmp_path / "r.csv"
    code, _, _ = run(["verify", "--identity", "eq1.28", "--out", str(jf)], capsys)
    assert code == 0
    code, _, _ = run(["verify", "--identity", "eq1.28", "--out", str(cf),
                      "--format", "csv"], capsys)
    assert code == 0
    payload = json.loads(jf.read_text())
    lines = cf.read_text().strip().splitlines()
    assert lines[0] == "identity,variant,params,closed,oracle,abs_residual,rel_residual,status"
    assert len(lines) - 1 == len(payload["records"])
    for line, rec in zip(lines[1:], payload["records"]):
        parts = line.rsplit(",", 5)
        closed, oracle = float(parts[1]), float(parts[2])
        assert closed == rec["closed"]  # identical bits via round-trip repr
        assert oracle == rec["oracle"]
        assert parts[5] == rec["status"]


def test_verify_report_roundtrip_statuses(tmp_path, capsys):
    # re-running the cases from a written report reproduces identical statuses
    from eulersum import IdentityCase, Variant, verify_identity

    out_file = tmp_path / "base.json"
    code, _, _ = run(["verify", "--identity", "eq2.18", "--out", str(out_file)], capsys)
    assert code == 0
    payload = json.loads(out_file.read_text())
    for rec in payload["records"]:
        case = IdentityCase(
            identity_id=rec["identity"], params=rec["params"],
            tol=1e-7, variant=Variant(rec["variant"]),
        )
        again = verify_identity(case)
        assert again.status.value == rec["status"]
        assert again.closed_value == rec["closed"]
        assert again.oracle_value == rec["oracle"]


def test_verify_grid_file(tmp_path, capsys):
    grid = [
        {"identity": "eq2.13", "params": {"a": 1.0, "k": 1, "m": 1}},
        {"identity": "eq2.9", "params": {"a": 1.0, "b": 2.0}, "variant": "as-printed"},
    ]
    gf = tmp_path / "grid.json"
    gf.write_text(json.dumps(grid))
    out_file = tmp_path / "out.json"
    code, _, _ = run(["verify", "--grid", str(gf), "--out", str(out_file)], capsys)
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert [r["status"] for r in payload["records"]] == ["CONFIRMED", "REFUTED"]


def test_verify_grid_file_any_harmonic_order(tmp_path, capsys):
    # the oracles build prefix sums H_n^(m) of any order, alternating or not
    grid = [
        {"identity": "eq2.18", "params": {"k": 7, "m": 4}},
        {"identity": "eq2.19", "params": {"r": 2, "k": 5, "m": 4}},
        {"identity": "eq3.11", "params": {"b": 0.5, "k": 3, "m": 4}},
        {"identity": "eq3.13", "params": {"a": 0.5, "k": 2, "m": 5}},
        {"identity": "eq4.7", "params": {"a": 1, "k": 2, "m": 5}},
        {"identity": "eq4.10", "params": {"k": 5, "m": 4}},
        {"identity": "eq4.11", "params": {"r": 1, "k": 3, "m": 4}},
        {"identity": "eq4.12", "params": {"a": 1, "k": 2, "m": 4}},
        {"identity": "eq4.13", "params": {"a": 1, "k": 2, "m": 4}},
    ]
    gf = tmp_path / "grid.json"
    gf.write_text(json.dumps(grid))
    out_file = tmp_path / "out.json"
    code, _, err = run(["verify", "--grid", str(gf), "--out", str(out_file)], capsys)
    assert code == 0 and err == ""
    records = json.loads(out_file.read_text())["records"]
    assert [r["status"] for r in records] == ["CONFIRMED"] * len(grid)


def test_verify_missing_grid_file(tmp_path, capsys):
    code, _, err = run(["verify", "--grid", str(tmp_path / "nope.json")], capsys)
    assert code == 2


def test_env_max_terms_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EULERSUM_MAX_TERMS", "50000")
    out_file = tmp_path / "small.json"
    code, _, _ = run(["verify", "--identity", "eq1.28", "--out", str(out_file)], capsys)
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["config"]["max_terms"] == 50000
    monkeypatch.setenv("EULERSUM_MAX_TERMS", "not-a-number")
    code, _, err = run(["verify", "--identity", "eq1.28"], capsys)
    assert code == 2


def test_errata_table_and_json(capsys):
    code, out, _ = run(["errata"], capsys)
    assert code == 0
    rows = [ln for ln in out.splitlines()
            if ln.startswith(("eq", "zeta_k2"))]
    assert len(rows) == 5
    code, out, _ = run(["errata", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert {e["identity"] for e in payload} == {"eq2.9", "eq4.2", "eq3.15", "eq2.20", "zeta_k2"}
    assert sum(e["kind"] == "refuted" for e in payload) == 3


def test_errata_check_reproduces(capsys):
    code, out, _ = run(["errata", "--check"], capsys)
    assert code == 0
    assert out.count("(expected REFUTED)") == 3
    assert out.count("(expected CONFIRMED)") == 3
    assert "INCONCLUSIVE" not in out


def test_eval_human_formatting_ten_digits(capsys):
    code, out, _ = run(["eval", "eq2.14", "--a", "1", "--m", "2"], capsys)
    assert code == 0
    assert "0.6449340668" in out


@pytest.mark.parametrize("content, message", [
    ('[{"params": {"a": 1.0, "k": 1, "m": 1}}]', "'identity' key"),
    ('[{"identity": "eq2.13", ', "not valid JSON"),
    ('[{"identity": "eq2.13", "params": {"a": 1.0, "k": 1, "m": 1}, "variant": "bogus"}]',
     "variant must be one of"),
    ('[{"identity": "eq2.13", "params": {"a": 1.0, "k": 1}}]', "takes numeric parameters a, k, m"),
    (b'[{"identity": "eq2.13\xff"}]', "not valid UTF-8"),
    ("[" * 100_000, "nests too deeply"),
], ids=["missing-identity", "invalid-json", "unknown-variant", "missing-parameter",
        "invalid-utf8", "deep-nesting"])
def test_verify_grid_file_faults_exit_2(tmp_path, capsys, content, message):
    # a raw UnicodeDecodeError or RecursionError escaped with exit 1 before
    gf = tmp_path / "grid.json"
    if isinstance(content, bytes):
        gf.write_bytes(content)
    else:
        gf.write_text(content)
    code, out, err = run(["verify", "--grid", str(gf)], capsys)
    assert code == 2
    assert message in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err and out == ""


def test_eval_as_printed_without_printed_variant_exits_2(capsys):
    code, out, err = run(["eval", "eq2.13", "--a", "1", "--k", "1", "--m", "1",
                          "--as-printed"], capsys)
    assert code == 2
    assert "no printed variant" in err
    assert out == ""


_ARITHMETIC_WITNESSES = [
    ("eq1.27", {"a": 1e-12, "s": 100}, "ZeroDivisionError"),
    ("eq2.13", {"a": 1e300, "k": 1, "m": 100}, "OverflowError"),
    ("eq4.2", {"a": 1e-12, "b": 1e-300}, "value nan"),
    # the oracle side overflows: the tail model's x**d, and k! as a float
    ("eq4.3", {"a": 0.5, "s": 1000}, "OverflowError"),
    ("eq3.9", {"a": 1.0, "b": 0.5, "k": 2, "p": 1000}, "OverflowError"),
    ("w110", {"k": 1000}, "OverflowError"),
]


@pytest.mark.parametrize("ident, params, raw", _ARITHMETIC_WITNESSES)
def test_eval_arithmetic_failure_exits_2(capsys, ident, params, raw):
    argv = ["eval", ident, "--method", "both"] + [f"--{k}={v}" for k, v in params.items()]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert raw in err and "double-precision range" in err


def test_verify_arithmetic_failure_is_inconclusive_with_reason(tmp_path, capsys):
    grid = [{"identity": ident, "params": params} for ident, params, _ in _ARITHMETIC_WITNESSES]
    gf = tmp_path / "grid.json"
    gf.write_text(json.dumps(grid))
    out_file = tmp_path / "out.json"
    code, _, _ = run(["verify", "--grid", str(gf), "--out", str(out_file)], capsys)
    assert code == 0
    records = json.loads(out_file.read_text())["records"]
    assert [r["status"] for r in records] == ["INCONCLUSIVE"] * len(_ARITHMETIC_WITNESSES)
    for rec, (_, _, raw) in zip(records, _ARITHMETIC_WITNESSES):
        assert rec["reason"].startswith("DomainError") and raw in rec["reason"]


def test_exact_w_shape_past_its_integer_budget_is_a_domain_error(tmp_path, capsys):
    # the exact differences of eq3.13 would work on 7e6-bit integers here and
    # ran past 25 s; the integer budget rejects the case at once
    params = {"a": 1e300, "k": 7, "m": 1000}
    t0 = time.perf_counter()
    code, out, err = run(["eval", "eq3.13", "--method", "closed"]
                         + [f"--{k}={v}" for k, v in params.items()], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == "" and "budget" in err
    gf = tmp_path / "grid.json"
    gf.write_text(json.dumps([{"identity": "eq3.13", "params": params}]))
    out_file = tmp_path / "out.json"
    code, _, _ = run(["verify", "--grid", str(gf), "--out", str(out_file)], capsys)
    assert code == 0
    [rec] = json.loads(out_file.read_text())["records"]
    assert rec["status"] == "INCONCLUSIVE"
    assert rec["reason"].startswith("DomainError: exact W difference") and "budget" in rec["reason"]


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    # a new interpreter that imports this checkout's eulersum
    src = str(pathlib.Path(eulersum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_import_loads_no_numpy():
    # numpy loads on the first oracle evaluation, never on import
    proc = _fresh_python("import sys, eulersum, eulersum.cli, eulersum.catalog\n"
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_eval_closed_runs_with_numpy_blocked():
    # eval --method closed answers every identity where numpy cannot be
    # imported at all; the oracle side of the same process cannot
    proc = _fresh_python("""
import json, sys
sys.modules["numpy"] = None
from eulersum import catalog
from eulersum.cli import main
codes = {}
for ident_id in catalog.ids():
    params = catalog.get(ident_id).grid[0]
    codes[ident_id] = main(["eval", ident_id, "--method", "closed"]
                           + [f"--{k}={v}" for k, v in params.items()])
try:
    main(["eval", "eq2.13", "--a=1", "--k=1", "--m=1", "--method", "oracle"])
except ImportError:
    codes["oracle blocked"] = True
print(json.dumps(codes))
""")
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert codes.pop("oracle blocked") is True
    assert codes.keys() == set(catalog.ids()) and len(codes) == 39
    assert set(codes.values()) == {0}
