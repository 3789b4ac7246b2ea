"""eulersum benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload {suite,closed_sweep,quad_gf} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Each run starts the workload in a fresh interpreter with
one caller, one case after another, a single thread, and
``EULERSUM_MAX_TERMS`` removed from the environment, and repeats its round of
cases for about --seconds.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` adds traced rounds of the same cases and prints the per-layer
metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 0 only when every case gave its expected outcome.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cases  # noqa: E402

WORKLOADS = ("suite", "closed_sweep", "quad_gf")
# A run repeats a short round of cases for about --seconds and keeps each
# case's fastest round, which filters the host's speed swings.  ROUND_S is the
# round time measured at the commit that introduced the benchmark; the round
# count comes from it, so a faster program runs the same number of rounds in
# less time.
ROUND_S = {"suite": 2.5, "closed_sweep": 1.7, "quad_gf": 0.5}
CLOSED_POINTS = 4      # cost-grid points per identity in a closed_sweep round
QUAD_GF_PER_ID = 45    # grid rows per identity in a quad_gf round
SUITE_WITNESSES = 3
SETUP_PROBES = 9
DEADLINE_S = 170.0
LIBRARY_ERRORS = {"EulersumError", "DomainError", "PoleError", "ConvergenceError"}
PINNED_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_CODE = ("import eulersum.cli, eulersum.catalog as c\n"
              "print('ready' if c.CATALOG else 'empty catalog', flush=True)\n")


class BenchError(Exception):
    """The benchmark could not produce a measurement."""


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("EULERSUM_MAX_TERMS", None)
    env.update(PINNED_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Starts the child interpreters of one run, all under one deadline."""

    def __init__(self, root: str):
        self.root = root
        self.env = _child_env(root)
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, *args: str) -> dict:
        """Run worker.py in a fresh interpreter and return its JSON result."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before {' '.join(args)}")
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {' '.join(args)} timed out") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_time(self) -> float:
        """Fresh interpreter until eulersum.cli is imported and the catalog registered."""
        cmd = [sys.executable, "-c", SETUP_CODE]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        if code != 0 or line.strip() != "ready":
            raise BenchError(f"setup probe exited {code}")
        return elapsed


def _best_of(res: dict) -> tuple[list[float], float]:
    """Per-case latencies and wall time over the rounds of one run.

    Each case keeps its fastest round, and the wall time is the sum of those
    plus the smallest time any round spent outside its cases (grid parsing,
    the report and the console output for the cli workloads).
    """
    outside = min(r["wall_s"] - r["case_s"] for r in res["rounds"])
    return res["best_ms"], sum(res["best_ms"]) * 1e-3 + outside


def _check_suite(res: dict, rows: list[dict]) -> tuple[int, int]:
    witnesses = {(i, json.dumps(p, sort_keys=True)) for i, p in res["witnesses"]}
    outcomes = res["outcomes"]
    failed = abs(len(rows) - len(outcomes))
    for row, o in zip(rows, outcomes):
        if (o[0], o[1]) != (row["identity"], row["variant"]):
            failed += 1
        elif o[1] == "corrected":
            failed += o[3] != "CONFIRMED"
        else:
            failed += o[3] != "REFUTED" or (o[0], json.dumps(o[2], sort_keys=True)) not in witnesses
    printed = sum(1 for row in rows if row["variant"] == "as-printed")
    if printed != SUITE_WITNESSES or len(witnesses) != SUITE_WITNESSES:
        failed += 1
    return len(rows), min(failed, len(rows))


def _check_quad_gf(res: dict, rows: list[dict]) -> tuple[int, int]:
    outcomes = res["outcomes"]
    failed = abs(len(rows) - len(outcomes))
    for row, o in zip(rows, outcomes):
        if o[0] != row["identity"] or o[3] != "CONFIRMED":
            failed += 1
    return len(rows), min(failed, len(rows))


def _close(value: float, ref, tol: float) -> bool:
    return ref is not None and abs(value - ref) <= tol * max(1.0, abs(ref))


def _check_closed(res: dict, rows: list[dict], tol: dict) -> tuple[int, int]:
    outcomes = res["outcomes"]
    failed = abs(len(rows) - len(outcomes))
    for row, o in zip(rows, outcomes):
        if isinstance(o, str) and o in LIBRARY_ERRORS:
            continue
        t = tol[row["identity"]]
        if not (isinstance(o, (int, float)) and math.isfinite(o)
                and (_close(o, row["ref"], t) or _close(o, row.get("oracle"), t))):
            failed += 1
    return len(rows), min(failed, len(rows))


def _make_cases(workload: str, seed: int, workdir: str, builtin: list[dict]):
    """Write the workload's case file; return (path, rows, tol) for checking."""
    path = os.path.join(workdir, "cases.json")
    tol = None
    if workload == "suite":
        rows = cases.suite_cases(builtin)
        cases.write_cases(path, rows)
    elif workload == "quad_gf":
        rows = cases.quad_gf_cases(seed, QUAD_GF_PER_ID)
        cases.write_cases(path, rows)
    else:
        with open(os.path.join(HERE, "closed_pool.json"), encoding="utf-8") as fh:
            pool = json.load(fh)
        rows = cases.closed_sweep_cases(seed, CLOSED_POINTS, pool["cases"])
        tol = pool["tol"]
        # the program gets parameters only; references stay with the benchmark
        cases.write_cases(path, [{"identity": r["identity"], "params": r["params"]}
                                 for r in rows])
    return path, rows, tol


def bench(workload: str, seed: int, seconds: float, trace: bool, root: str) -> tuple[dict, bool]:
    workdir = os.path.join(root, ".perfbench_out", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(root)

    env = runner.worker("env")  # also the unmeasured warm-up import
    builtin = env.pop("builtin")
    if not env["eulersum_file"].startswith(os.path.join(root, "src") + os.sep):
        raise BenchError(f"imported eulersum from {env['eulersum_file']}, not from {root}/src")
    env.update(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
               loadavg=os.getloadavg(), workload=workload, seed=seed, seconds=seconds)
    with open(os.path.join(workdir, "env.json"), "w", encoding="utf-8") as fh:
        json.dump(env, fh, indent=1)
    print("# env " + json.dumps(env), flush=True)

    cases_path, rows, tol = _make_cases(workload, seed, workdir, builtin)
    rounds = max(1, round(seconds / ROUND_S[workload]))
    traced_rounds = max(1, rounds // 4) if trace else 0

    # setup probes run before and after the workload, so that their median
    # samples the host at more than one moment of the run
    probes = [runner.setup_time() for _ in range(SETUP_PROBES // 2)]
    res = runner.worker("run", workload, cases_path, workdir, str(rounds), str(traced_rounds))
    probes += [runner.setup_time() for _ in range(SETUP_PROBES - len(probes))]

    for err in res["raw_errors"]:
        print(f"# raw exception: {err}", file=sys.stderr)
    if workload == "suite":
        attempted, failed = _check_suite(res, rows)
    elif workload == "quad_gf":
        attempted, failed = _check_quad_gf(res, rows)
    else:
        attempted, failed = _check_closed(res, rows, tol)
    failed += len(res["unstable"])
    failed += sum(1 for r in res["rounds"] if r["exit_code"] != 0)
    failed = min(failed, attempted)

    if not trace:
        lat, wall = _best_of(res)
        metrics = {
            "setup_s": (statistics.median(probes), "s"),
            "wall_s": (wall, "s"),
            "case_ms_p50": (statistics.median(lat), "ms"),
            "case_ms_p90": (statistics.quantiles(lat, n=10)[-1], "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "pass_frac": (1.0 - failed / attempted, "frac"),
        }
        walls = sorted(r["wall_s"] for r in res["rounds"])
        print(f"# {len(lat)} latency samples, fastest of {rounds} round(s); round walls "
              f"min {walls[0]:.3f} median {statistics.median(walls):.3f} s", flush=True)
    else:
        traced = res["traced"]
        layers = dict(traced["layers"])
        layers.update(runner.worker("micro", str(seed)))
        layers["oracle.inconclusive"] = sum(
            1 for o in res["outcomes"] if isinstance(o, list) and o[3] == "INCONCLUSIVE")
        layers["oracle.bound_over_target_max"] = res.get("bound_over_target_max", 0.0)
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - min(r["wall_s"] for r in res["rounds"])
        print(f"# {traced['span_count']} spans in {os.path.join(workdir, 'spans.jsonl')}",
              flush=True)
        metrics = {name: (value, _unit(name)) for name, value in layers.items()}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, failed == 0


def _unit(name: str) -> str:
    for suffix, unit in ((".ns", "ns"), (".ns_per_term", "ns"), (".terms", "terms"),
                         (".nodes", "nodes"), (".calls", "count"), (".inconclusive", "count"),
                         (".bound_over_target_max", "ratio"), ("ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    for need in ("src/eulersum/__init__.py", "src/eulersum/cli.py"):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"perfbench: {need} not found under {root}; run from a source checkout",
                  file=sys.stderr)
            return 2
    try:
        result, ok = bench(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
