"""Paired benchmark runs of two checkouts, written as BENCH_<name>_pairs.json.

    python3 tools/bench_pairs.py --parent ../par --change ../chg --name verify_path \
        --run quad_gf:10:701 --run suite:10:601 [--trace 1]

Each ``--run WORKLOAD:PAIRS:FIRST_SEED`` makes PAIRS pairs on seeds FIRST_SEED,
FIRST_SEED + 1, ...  A pair runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace X

(T is BENCHMARK.json's ``run_seconds``) once in each checkout, from that
checkout's root and with its own perfbench, one run after the other: the
parent first in even pairs, the change first in odd ones.  The two checkout
paths must have the same length, because the path length alone moves
``peak_rss_mb``.

The output, BENCH_<name>_pairs.json in the current directory, has the keys
``command``, ``notes`` (empty, for the reader's account), ``summary`` and
``runs``:
``runs[workload][seed]`` holds each side's metric values with ``correct``,
``attempted`` and ``failed``, and which side ran first; ``summary[workload]
[metric]`` gives each side's median and quartiles, the per-pair ratios
change/parent with their median, and the pairs in which the change was better
(ties count for neither side), by the direction BENCHMARK.json gives the
metric.  The file is rewritten after every pair, so an interrupted run
keeps the pairs it finished.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace {trace}"


def _run_spec(text: str) -> tuple[str, int, int]:
    try:
        workload, pairs, seed = text.split(":")
        return workload, int(pairs), int(seed)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected WORKLOAD:PAIRS:FIRST_SEED, got {text!r}") from None


def _benchmark(root: str) -> tuple[str, dict[str, str]]:
    # the run length and each metric's better direction
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return str(bench["run_seconds"]), {
        m["name"]: m["better"] for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def run_once(root: str, workload: str, seed: int, seconds: str, trace: str) -> dict:
    """One perfbench run in the checkout at root: its metric values, or its error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", trace]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": proc.stderr.strip()[-2000:], "exit_code": proc.returncode}
    out = {name: m["value"] for name, m in result["metrics"].items()}
    out.update(correct=result["correct"], attempted=result["attempted"],
               failed=result["failed"])
    return out


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(pairs: dict, directions: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the pair ratios."""
    done = [p for p in pairs.values()
            if "error" not in p["parent"] and "error" not in p["change"]]
    if not done:
        return {}
    out = {}
    for name in done[0]["parent"]:
        if name in ("correct", "attempted", "failed"):
            continue
        par = [p["parent"][name] for p in done]
        chg = [p["change"][name] for p in done]
        ratios = [c / p if p else (1.0 if c == p else float("inf")) for p, c in zip(par, chg)]
        lower = directions.get(name, "lower") == "lower"
        out[name] = {
            "better": "lower" if lower else "higher",
            "parent_median": statistics.median(par),
            "parent_q1_q3": _quartiles(par),
            "change_median": statistics.median(chg),
            "change_q1_q3": _quartiles(chg),
            "median_pair_ratio": statistics.median(ratios),
            "pair_ratios": ratios,
            "change_better_pairs": sum((c < p) if lower else (c > p) for p, c in zip(par, chg)),
            "pairs": len(done),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--name", required=True, help="the file is BENCH_<name>_pairs.json")
    ap.add_argument("--run", type=_run_spec, action="append", required=True,
                    metavar="WORKLOAD:PAIRS:FIRST_SEED")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args(argv)

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    if len(roots["parent"]) != len(roots["change"]):
        ap.error(f"checkout paths differ in length: {roots['parent']} and {roots['change']}")
    out_path = f"BENCH_{args.name}_pairs.json"
    seconds, directions = _benchmark(roots["change"])
    doc = {"command": COMMAND.format(seconds=seconds, trace=args.trace),
           "notes": [], "summary": {}, "runs": {}}

    for workload, count, first_seed in args.run:
        pairs = doc["runs"].setdefault(workload, {})
        for i in range(count):
            seed = first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(roots[side], workload, seed, seconds, args.trace)
                print(f"# {workload} seed {seed} {side}: "
                      f"{pair[side].get('wall_s', pair[side].get('error'))}",
                      file=sys.stderr, flush=True)
            pairs[str(seed)] = pair
            doc["summary"][workload] = summarize(pairs, directions)
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
