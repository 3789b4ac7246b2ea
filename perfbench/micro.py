"""Nanoseconds per call of the specfun and harmonic building blocks.

Arguments are drawn from the run's seed, and every call gets a distinct
argument tuple, so the ``lru_cache`` on hurwitz_zeta and alt_hurwitz_zeta (and
everything built on them) is cold, as it is for continuously drawn shifts.
Each figure is the median of five timed blocks of about 20 ms.
"""
from __future__ import annotations

import random
import statistics
import time

BLOCKS = 5
BLOCK_S = 0.02


def _cases(rng: random.Random):
    from eulersum import harmonic, specfun

    u = rng.uniform
    r = rng.randint
    return {
        "specfun.digamma.ns": (specfun.digamma, lambda: (u(0.1, 50.0),)),
        "specfun.polygamma.ns": (specfun.polygamma, lambda: (r(1, 3), u(0.1, 50.0))),
        "specfun.hurwitz_zeta.ns": (specfun.hurwitz_zeta, lambda: (r(2, 6), u(0.5, 50.0))),
        "specfun.alt_hurwitz_zeta.ns": (specfun.alt_hurwitz_zeta,
                                        lambda: (r(1, 4), u(0.0, 20.0))),
        "specfun.polylog.ns": (specfun.polylog, lambda: (r(1, 4), u(-0.95, 0.95))),
        "specfun.param_polylog.ns": (specfun.param_polylog,
                                     lambda: (r(1, 4), u(0.05, 3.0), u(-0.9, 0.9))),
        "specfun.h_func.ns": (specfun.h_func, lambda: (r(1, 3), u(0.05, 3.0), u(0.05, 0.9))),
        "harmonic.harmonic_num.ns": (harmonic.harmonic_num, lambda: (1024, r(1, 3))),
        "harmonic.param_harmonic.ns": (harmonic.param_harmonic,
                                       lambda: (1024, r(1, 3), u(0.05, 5.0))),
        "harmonic.shifted_harmonic.ns": (harmonic.shifted_harmonic,
                                         lambda: (u(0.0, 50.0), r(1, 4))),
        "harmonic.y_moment.ns": (harmonic.y_moment, lambda: (r(1, 6), u(0.05, 10.0))),
    }


def _block(fn, args) -> float:
    t0 = time.perf_counter_ns()
    for a in args:
        fn(*a)
    return (time.perf_counter_ns() - t0) / len(args)


def measure(seed: int) -> dict[str, float]:
    rng = random.Random(f"micro:{seed}")
    out = {}
    for name, (fn, draw) in _cases(rng).items():
        probe = _block(fn, [draw() for _ in range(20)])
        n = max(20, min(20000, int(BLOCK_S * 1e9 / probe)))
        out[name] = statistics.median(
            _block(fn, [draw() for _ in range(n)]) for _ in range(BLOCKS))
    return out
