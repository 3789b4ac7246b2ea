"""One measured run of a workload, in a fresh interpreter.

    python3 perfbench/worker.py env
    python3 perfbench/worker.py run WORKLOAD CASES WORKDIR ROUNDS TRACED_ROUNDS
    python3 perfbench/worker.py micro SEED

``run.py`` starts this script with ``PYTHONPATH`` set to the checkout's ``src``.
It measures and reports; ``run.py`` judges correctness.  The result is one JSON
object on the last line of standard output.

A run repeats the workload's case list ROUNDS times.  Every ``functools``
cache in the package is cleared before each round, so each round starts from
the cache state of a fresh interpreter.  Each case keeps its fastest round.
Then TRACED_ROUNDS more rounds run with spans recorded, and the spans of the
fastest traced round are kept.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def _env() -> dict:
    import numpy as np

    import eulersum
    import eulersum.cli  # noqa: F401  (the import setup_s times)
    from eulersum import catalog

    info = np.finfo(np.longdouble)
    return {
        "builtin": [{"identity": c.identity_id, "variant": c.variant.value,
                     "params": dict(c.params)} for c in catalog.default_cases("both")],
        "eulersum_file": os.path.abspath(eulersum.__file__),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "longdouble": {"bits": int(np.dtype(np.longdouble).itemsize * 8),
                       "eps": float(info.eps), "precision": int(info.precision)},
    }


def clear_caches() -> int:
    """Empty every functools cache reachable from the eulersum modules."""
    cleared = set()
    for name, mod in list(sys.modules.items()):
        if name == "eulersum" or name.startswith("eulersum."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear) and id(obj) not in cleared:
                    clear()
                    cleared.add(id(obj))
    return len(cleared)


class _Round:
    """Latency and outcome of each case in one round."""

    def __init__(self):
        self.latencies_ms: list[float] = []
        self.outcomes: list = []
        self.raw_errors: list[str] = []
        self.bounds: list[tuple[str, float]] = []
        self.wall_s = 0.0
        self.exit_code = 0


class _CaseBoundary:
    """Times each case at the verify_identity boundary for the cli workloads.

    A raw (non-library) exception from one case is recorded and turned into an
    INCONCLUSIVE record, so the rest of the run still executes; run.py counts
    it as a failure.
    """

    def __init__(self):
        from eulersum import oracle

        self.inner = oracle.verify_identity
        self.tracer = None
        self.round = _Round()
        record_type, status = oracle.VerificationRecord, oracle.Status

        def timed(case, config=None):
            rnd = self.round
            if self.tracer is not None:
                self.tracer.case += 1
            t0 = time.perf_counter()
            try:
                rec = self.inner(case, config)
            except Exception as exc:  # noqa: BLE001 - a case must not end the run
                rnd.raw_errors.append(f"{case.identity_id} {dict(case.params)}: {exc!r}\n"
                                      + traceback.format_exc())
                rec = record_type(case=case, closed_value=math.nan, oracle_value=math.nan,
                                  abs_residual=math.nan, rel_residual=math.nan,
                                  status=status.INCONCLUSIVE, oracle_error_bound=math.inf)
            rnd.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            rnd.outcomes.append([case.identity_id, case.variant.value, dict(case.params),
                                 rec.status.value])
            rnd.bounds.append((case.identity_id, rec.oracle_error_bound))
            return rec

        oracle.verify_identity = timed   # grid_verify looks the name up per call


def _cli_round(boundary: _CaseBoundary, argv: list[str], workdir: str, tracer) -> _Round:
    from eulersum import cli

    boundary.round = _Round()
    boundary.tracer = tracer
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    report = os.path.join(workdir, "report.json")
    with open(os.path.join(workdir, "console.txt"), "w", encoding="utf-8") as console:
        with contextlib.redirect_stdout(console):
            t0 = time.perf_counter()
            code = main(argv + ["--out", report])
            boundary.round.wall_s = time.perf_counter() - t0
    boundary.round.exit_code = code
    return boundary.round


def _closed_round(rows: list[dict], tracer) -> _Round:
    from eulersum import catalog
    from eulersum.errors import EulersumError
    from eulersum.oracle import Variant

    rnd = _Round()
    t_start = time.perf_counter()
    for n, row in enumerate(rows):
        if tracer is not None:
            tracer.case = n
        params = row["params"]
        t0 = time.perf_counter()
        try:
            ident = catalog.get(row["identity"])
            ident.validate(**params)
            outcome = ident.closed(Variant.CORRECTED, **params)
        except EulersumError as exc:
            outcome = type(exc).__name__
        except Exception as exc:  # noqa: BLE001 - a case must not end the run
            outcome = None
            rnd.raw_errors.append(f"{row['identity']} {params}: {exc!r}\n"
                                  + traceback.format_exc())
        rnd.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        rnd.outcomes.append(outcome)
    rnd.wall_s = time.perf_counter() - t_start
    return rnd


def run(workload: str, cases_path: str, workdir: str, rounds: int, traced_rounds: int) -> dict:
    import eulersum.cli  # noqa: F401  (import before the clock starts)
    from eulersum import catalog

    if workload == "closed_sweep":
        with open(cases_path, encoding="utf-8") as fh:
            rows = json.load(fh)
        one_round = lambda tracer: _closed_round(rows, tracer)  # noqa: E731
    elif workload in ("suite", "quad_gf"):
        boundary = _CaseBoundary()
        one_round = lambda tracer: _cli_round(  # noqa: E731
            boundary, ["verify", "--grid", cases_path], workdir, tracer)
    else:
        raise SystemExit(f"unknown workload {workload!r}")

    plain = []
    for _ in range(rounds):
        clear_caches()
        plain.append(one_round(None))
    first = plain[0]
    out = {
        "rounds": [{"wall_s": r.wall_s, "case_s": sum(r.latencies_ms) * 1e-3,
                    "exit_code": r.exit_code} for r in plain],
        "best_ms": [min(v) for v in zip(*(r.latencies_ms for r in plain))],
        "outcomes": first.outcomes,
        # a case whose outcome differs between rounds fails the gate
        "unstable": [i for i, o in enumerate(first.outcomes)
                     if any(r.outcomes[i] != o for r in plain[1:])],
        "raw_errors": sorted({e for r in plain for e in r.raw_errors}),
    }
    if workload != "closed_sweep":
        from tracing import bound_over_target_max

        out["bound_over_target_max"] = bound_over_target_max(
            first.bounds, lambda i: catalog.get(i).tol)
        out["witnesses"] = [[i, p] for i, p in catalog.REFUTATION_WITNESSES]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if traced_rounds:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        if workload != "closed_sweep":
            boundary.inner = tracer.wrap("verify_identity", boundary.inner)
        best = None
        for _ in range(traced_rounds):
            tracer.reset()
            clear_caches()
            rnd = one_round(tracer)
            if best is None or rnd.wall_s < best[0]:
                best = (rnd.wall_s, list(tracer.spans))
        tracing.write_spans(os.path.join(workdir, "spans.jsonl"), best[1])
        out["traced"] = {"wall_s": best[0], "layers": tracing.summarize(best[1]),
                         "span_count": len(best[1])}
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["env"]:
        result = _env()
    elif argv[:1] == ["run"] and len(argv) == 6:
        result = run(argv[1], argv[2], argv[3], int(argv[4]), int(argv[5]))
    elif argv[:1] == ["micro"] and len(argv) == 2:
        import micro

        result = micro.measure(int(argv[1]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
