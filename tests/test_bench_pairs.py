"""tools/bench_pairs.py: paired runs of two checkouts and their summary."""
import importlib.util
import json
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# a stand-in for perfbench/run.py: wall_s is the checkout's WALL file times
# (seed - 100); the change's WALL is below the parent's
_FAKE_RUN = """
import json, os, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
wall = float(open("WALL").read()) * (seed - 100)
with open("ORDER", "a") as fh:
    fh.write(f"{seed}\\n")
print("# env {}")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
    "wall_s": {"value": wall, "unit": "s"}, "pass_frac": {"value": 1.0, "unit": "frac"}}}))
"""


def _checkout(root: pathlib.Path, wall: float) -> pathlib.Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(_FAKE_RUN)
    (root / "WALL").write_text(str(wall))
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 25, "end_to_end": [
        {"name": "wall_s", "better": "lower"}, {"name": "pass_frac", "better": "higher"}]}))
    return root


def test_pairs_alternate_and_summarize(tmp_path, monkeypatch):
    par, chg = _checkout(tmp_path / "par", 2.0), _checkout(tmp_path / "chg", 1.0)
    monkeypatch.chdir(tmp_path)
    code = bench_pairs.main(["--parent", str(par), "--change", str(chg), "--name", "x",
                             "--run", "suite:3:101"])
    assert code == 0
    doc = json.loads((tmp_path / "BENCH_x_pairs.json").read_text())
    assert list(doc) == ["command", "notes", "summary", "runs"] and doc["notes"] == []
    assert doc["command"].endswith("--seconds 25 --trace 0")
    runs = doc["runs"]["suite"]
    assert [runs[s]["first"] for s in ("101", "102", "103")] == ["parent", "change", "parent"]
    assert runs["102"]["change"] == {"wall_s": 2.0, "pass_frac": 1.0, "correct": True,
                                     "attempted": 3, "failed": 0}
    wall = doc["summary"]["suite"]["wall_s"]
    assert wall["pair_ratios"] == [0.5, 0.5, 0.5] and wall["median_pair_ratio"] == 0.5
    assert (wall["parent_median"], wall["change_median"]) == (4.0, 2.0)
    assert wall["parent_q1_q3"] == [3.0, 5.0] and wall["change_better_pairs"] == 3
    assert doc["summary"]["suite"]["pass_frac"]["change_better_pairs"] == 0  # ties
    assert (par / "ORDER").read_text().split() == (chg / "ORDER").read_text().split()


def test_checkout_paths_must_have_equal_length(tmp_path, capsys, monkeypatch):
    par, chg = _checkout(tmp_path / "par", 2.0), _checkout(tmp_path / "change", 1.0)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(par), "--change", str(chg), "--name", "x",
                          "--run", "suite:1:101"])
    assert exc.value.code == 2
    assert "differ in length" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_x_pairs.json").exists()
