"""Self-tests for the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke runs use --seconds 1: one or two rounds of each workload.
"""
from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import cases  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _pool() -> dict:
    with open(os.path.join(HERE, "closed_pool.json"), encoding="utf-8") as fh:
        return json.load(fh)["cases"]


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=240)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_same_seed_gives_byte_identical_case_files(tmp_path):
    pool = _pool()
    for make in (lambda s: cases.quad_gf_cases(s, 20),
                 lambda s: cases.closed_sweep_cases(s, 4, pool)):
        paths = []
        for n, seed in enumerate((7, 7, 8)):
            path = tmp_path / f"cases{n}.json"
            cases.write_cases(str(path), make(seed))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]
        assert paths[0] != paths[2]


def test_case_files_cover_every_identity_evenly():
    rows = cases.quad_gf_cases(3, 4)
    assert sorted({r["identity"] for r in rows}) == sorted(cases.QUAD_GF_SAMPLERS)
    assert len(rows) == 4 * 9
    rows = cases.closed_sweep_cases(3, 4, _pool())
    assert len({r["identity"] for r in rows}) == 39
    cheap = 39 - len(cases.EXPENSIVE)
    assert len(rows) == 4 * (len(cases.EXPENSIVE) + cases.CHEAP_DRAWS * cheap)
    with pytest.raises(ValueError):
        cases.closed_sweep_cases(3, 5, _pool())


def test_grid_reaches_the_cost_caps():
    draw = cases.CLOSED_SAMPLERS["eq2.18"]
    assert [draw(u, random.Random(0))["k"] for u in cases.grid(4)] == [1, 10, 101, 1024]
    draw = cases.CLOSED_SAMPLERS["w111"]
    assert draw(1.0, random.Random(0))["k"] == cases.K_WSUM
    draw = cases.CLOSED_SAMPLERS["eq2.28"]
    assert draw(1.0, random.Random(0))["k"] == cases.K_HH


def test_clear_caches_empties_the_lru_caches():
    from eulersum import linear_sums

    import worker

    linear_sums.sum_shiftedH_over_nsq(0.5, n_terms=1000)
    assert linear_sums.sum_shiftedH_over_nsq.cache_info().currsize >= 1
    assert worker.clear_caches() >= 1
    assert linear_sums.sum_shiftedH_over_nsq.cache_info().currsize == 0


def test_raw_exception_is_caught_and_the_round_goes_on():
    import worker

    rows = [{"identity": "eq2.9", "params": {"a": "x", "b": 1.0}},
            {"identity": "eq2.9", "params": {"a": 0.5, "b": 1.0}}]
    rnd = worker._closed_round(rows, None)
    assert rnd.outcomes[0] is None and isinstance(rnd.outcomes[1], float)
    assert len(rnd.raw_errors) == 1 and "ValueError" in rnd.raw_errors[0]


def test_metric_names_and_counts():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert len(spec["end_to_end"]) <= 16
    assert len(spec["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {w["name"] for w in spec["workloads"]} == {"suite", "closed_sweep", "quad_gf"}


def test_self_time_subtracts_children():
    spans = [
        ["cli.main", None, 0, 100, -1, -1, 0],
        ["verify_identity", None, 10, 60, 0, 0, 0],
        ["Identity.oracle", "eq1.27", 20, 50, 1, 0, 0],
        ["truncated_series", None, 25, 45, 2, 0, 1000],
        ["verify_identity", None, 60, 90, 0, 1, 0],
    ]
    out = tracing.summarize(spans)
    assert out["oracle.series.terms"] == 1000
    assert out["oracle.series.ns_per_term"] == pytest.approx(0.02)
    assert out["oracle.driver.self_ms"] == pytest.approx((20 + 30) * 1e-6)
    assert out["cli.self_ms"] == pytest.approx(20 * 1e-6)
    assert out["cli.report_ms"] == pytest.approx(10 * 1e-6)
    assert out["id.eq1.27.oracle_ms"] == pytest.approx(30 * 1e-6)


def test_tables_cover_the_catalog():
    assert set(tracing.ORACLE_KIND) == set(cases.CLOSED_SAMPLERS)
    assert set(tracing.CLOSED_OWNER) == set(cases.CLOSED_SAMPLERS)
    assert len(cases.CLOSED_SAMPLERS) == 39


@pytest.mark.parametrize("workload", ["suite", "closed_sweep", "quad_gf"])
def test_smoke_end_to_end(workload):
    res = _result(_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", ["suite", "closed_sweep", "quad_gf"])
def test_smoke_traced(workload):
    res = _result(_bench(ROOT, "--workload", workload, "--seed", "4", "--seconds", "1",
                         "--trace", "1"))
    assert res["correct"]
    want = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    spans = os.path.join(ROOT, ".perfbench_out", f"{workload}-seed4-trace1", "spans.jsonl")
    assert os.path.getsize(spans) > 0
    m = {k: v["value"] for k, v in res["metrics"].items()}
    if workload == "suite":
        assert m["oracle.series.ms"] >= 0.9 * m["trace.wall_s"] * 1e3
    elif workload == "closed_sweep":
        assert m["catalog.closed.ms"] >= 0.9 * m["trace.wall_s"] * 1e3
    else:
        assert m["oracle.quad.calls"] > 0 and m["oracle.series.calls"] == 0


def test_suite_rows_come_from_the_builtin_suite():
    grid = [{"identity": "eq2.9", "variant": "corrected", "params": {"a": a, "b": 3.0}}
            for a in (0.5, 1.0, 1.5, 2.0)]
    heavy = {"identity": "eq2.36", "variant": "corrected", "params": {"a": 0.5, "k": 1}}
    witness = {"identity": "eq2.9", "variant": "as-printed", "params": {"a": 1.0, "b": 2.0}}
    assert cases.suite_cases(grid + [heavy, witness]) == [grid[2], witness]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(str(tmp_path), "--workload", "closed_sweep", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
