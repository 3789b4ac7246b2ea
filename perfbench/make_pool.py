"""Regenerate closed_pool.json, the closed_sweep candidate cases and references.

    PYTHONPATH=src python3 perfbench/make_pool.py

Run it only at the commit whose closed forms are the reference (the commit
that introduced the benchmark); the closed_sweep gate compares later commits
against the values it records.

Each candidate stores ``ref``, the closed form's value at that commit.
Reciprocal-binomial candidates with k above the wsums precision-warning
threshold also store ``oracle``, the truncated-series oracle's value: their
closed forms lose digits there, and the gate accepts a value that matches
either number, so a later precision fix is not flagged.
"""
from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cases  # noqa: E402
import run  # noqa: E402
from eulersum import catalog, wsums  # noqa: E402
from eulersum.oracle import SeriesConfig, Variant  # noqa: E402

POOL_SEED = 2017
POINTS = run.CLOSED_POINTS
PER_POINT = 12
WSUM_IDS = ("eq3.9", "eq3.11", "eq3.13", "eq3.15", "eq3.16", "w110", "w111",
            "eq4.5", "eq4.12", "eq4.13")


def main() -> int:
    pool = cases.pool_draws(POOL_SEED, POINTS, PER_POINT)
    tol = {}
    off = 0
    checked = 0
    for ident_id, points in pool.items():
        ident = catalog.get(ident_id)
        tol[ident_id] = ident.tol
        for cands in points:
            for cand in cands:
                p = cand["params"]
                ident.validate(**p)
                value = ident.closed(Variant.CORRECTED, **p)
                if not math.isfinite(value):
                    raise SystemExit(f"{ident_id} {p}: non-finite closed form {value}")
                cand["ref"] = value
                if ident_id in WSUM_IDS and wsums.precision_warning(int(p["k"])):
                    res = ident.oracle(SeriesConfig(target_tol=ident.tol / 10.0), **p)
                    cand["oracle"] = res.value
                    checked += 1
                    if abs(value - res.value) > ident.tol * max(1.0, abs(res.value)):
                        off += 1
    doc = {
        "pool_seed": POOL_SEED,
        "points": POINTS,
        "per_point": PER_POINT,
        "tol": tol,
        "cases": pool,
    }
    with open(os.path.join(HERE, "closed_pool.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {sum(len(p) * PER_POINT for p in pool.values())} candidates; "
          f"{off} of {checked} high-k reciprocal-binomial closed forms miss their oracle")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
