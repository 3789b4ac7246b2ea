"""Seeded case generation for the suite, closed_sweep and quad_gf workloads.

Every case is drawn from a per-identity sampler ``f(u, rng) -> params``: ``u``
on [0, 1) sets the parameter the closed form's cost grows with (the window
width ``k``, an order, or a shift), and ``rng`` draws the rest.  ``u`` runs
over an even grid from 0 to 1, both ends included and the same for every
seed, so every seed has the same spread of cheap and expensive cases, up to
each cost cap; the seed changes the other parameters, the candidates picked
and the order.  This keeps wall time and the
latency percentiles steady from seed to seed.

Case files are JSON written with sorted keys, so one seed always gives the
same bytes.
"""
from __future__ import annotations

import json
import random

# Integer windows are log-uniform up to these caps (see README.md).
K_WINDOW = 1024   # window and integer-shift display identities, O(k^2) Python loops
K_WSUM = 30       # reciprocal-binomial sums: the wsums closed-form cap
K_HH = 4          # eq2.28 / eq2.29: each unit of k costs a 10^6-term closed-side sum


def _logk(u: float, kmax: int, kmin: int = 1) -> int:
    k = int(kmin * ((kmax + 1.0) / kmin) ** u)
    return max(kmin, min(kmax, k))


def _pick(u: float, lo: int, hi: int) -> int:
    return min(hi, lo + int(u * (hi - lo + 1)))


def _real(rng: random.Random, lo: float, hi: float) -> float:
    return round(lo + (hi - lo) * rng.random(), 6)


def _shift(rng: random.Random) -> float:
    return _real(rng, 0.05, 5.0)


def _two_shifts(rng: random.Random) -> tuple[float, float]:
    a = _shift(rng)
    b = _shift(rng)
    while abs(a - b) < 0.05:
        b = _shift(rng)
    return a, b


def _x(rng: random.Random) -> float:
    return _real(rng, -0.88, 0.88)


def _window(kmax):
    def draw(u, rng):
        return {"a": _shift(rng), "k": _logk(u, kmax)}
    return draw


def _window_m(kmax, m_hi=3):
    def draw(u, rng):
        return {"a": _shift(rng), "k": _logk(u, kmax), "m": rng.randint(1, m_hi)}
    return draw


def _zero_shift_display(u, rng):
    return {"k": _logk(u, K_WINDOW), "m": rng.randint(1, 3)}


def _integer_shift_display(u, rng):
    k = _logk(u, K_WINDOW, kmin=2)
    r = _logk(rng.random(), k - 1)
    return {"r": r, "k": k, "m": rng.randint(1, 3)}


def _bilinear(u, rng):
    a, b = _two_shifts(rng)
    return {"a": a, "b": b}


def _wsum_power(u, rng):
    a, b = _two_shifts(rng)
    return {"a": a, "b": b, "k": _logk(u, K_WSUM), "p": rng.randint(1, 3)}


# Samplers for all 39 catalog identities, used by closed_sweep (validate +
# closed only).  Domains keep every draw inside the identity's stated domain.
CLOSED_SAMPLERS = {
    "eq1.27": lambda u, rng: {"a": _shift(rng), "s": _pick(u, 2, 6)},
    "eq1.28": lambda u, rng: {"a": _shift(rng), "s": _pick(u, 1, 6)},
    "eq2.9": _bilinear,
    "eq2.13": _window_m(K_WINDOW),
    "eq2.14": lambda u, rng: {"a": _shift(rng), "m": _pick(u, 1, 6)},
    "eq2.18": _zero_shift_display,
    "eq2.19": _integer_shift_display,
    "eq2.20": _window(K_WINDOW),
    "eq2.21": _window(K_WINDOW),
    "eq2.22": _window(K_WINDOW),
    "eq2.27": _window(K_WINDOW),
    "eq2.28": _window(K_HH),
    "eq2.29": _window(K_HH),
    "eq2.36": _window(K_WINDOW),
    "eq2.37": _window(K_WINDOW),
    "eq3.9": _wsum_power,
    "eq3.11": lambda u, rng: {"b": _real(rng, 0.0, 5.0), "k": _logk(u, K_WSUM, 2),
                              "m": rng.randint(1, 3)},
    "eq3.13": _window_m(K_WSUM),
    "eq3.15": lambda u, rng: {"b": _real(rng, 0.0, 5.0), "k": _logk(u, K_WSUM, 2)},
    "eq3.16": _window(K_WSUM),
    "w110": lambda u, rng: {"k": _logk(u, K_WSUM, 2)},
    "w111": lambda u, rng: {"k": _logk(u, K_WSUM)},
    "eq4.2": _bilinear,
    "eq4.3": lambda u, rng: {"a": _real(rng, 0.0, 5.0), "s": _pick(u, 2, 6)},
    "eq4.5": _wsum_power,
    "eq4.7": lambda u, rng: {"a": rng.randint(0, 16), "k": _logk(u, K_WINDOW),
                             "m": rng.randint(1, 3)},
    "eq4.10": _zero_shift_display,
    "eq4.11": _integer_shift_display,
    "eq4.12": lambda u, rng: {"a": rng.randint(0, 16), "k": _logk(u, K_WSUM, 2),
                              "m": rng.randint(1, 3)},
    "eq4.13": lambda u, rng: {"a": rng.randint(1, 16), "k": _logk(u, K_WSUM),
                              "m": rng.randint(1, 3)},
}

# The 9 identities outside the builtin suite: quadrature and generating-function
# oracles.  Shared with closed_sweep, which evaluates their closed sides too.
QUAD_GF_SAMPLERS = {
    "eq2.2": lambda u, rng: {"m": _pick(u, 1, 4), "a": _real(rng, 0.3, 4.0)},
    "eq1.19": lambda u, rng: {"x": _real(rng, 0.1, 0.85), "a": _real(rng, 0.3, 2.5),
                              "b": _real(rng, 0.3, 2.5), "n": rng.randint(1, 5),
                              "m": _pick(u, 1, 3)},
    "eq1.23": lambda u, rng: {"x": _real(rng, 0.1, 0.85), "b": _real(rng, 0.3, 2.5),
                              "n": rng.randint(1, 5), "m": _pick(u, 1, 3)},
    "eq1.24": lambda u, rng: {"x": _x(rng), "y": _x(rng), "a": _real(rng, 0.05, 3.0),
                              "s": _pick(u, 1, 3)},
    "eq1.25": lambda u, rng: {"x": _x(rng), "a": _real(rng, 0.05, 3.0), "s": _pick(u, 2, 4)},
    "eq1.29": lambda u, rng: {"x": round(-0.88 + 1.76 * u, 6)},
    "eq1.30": lambda u, rng: {"x": round(-0.88 + 1.76 * u, 6), "m": rng.randint(2, 3)},
    "eq1.31": lambda u, rng: {"x": _x(rng), "y": _x(rng), "p": rng.randint(1, 2),
                              "m": rng.randint(1, 2)},
    "eq2.25": lambda u, rng: {"x": round(-0.88 + 1.76 * u, 6)},
}

CLOSED_SAMPLERS.update(QUAD_GF_SAMPLERS)


def grid(n: int) -> list[float]:
    """n >= 2 evenly spaced points from 0 to 1, both ends included."""
    return [i / (n - 1) for i in range(n)]


# The builtin-suite identities whose oracle sums 10^7 terms (scale=10): at 1-4 s
# a case they cannot be repeated within a run, so the suite workload leaves
# them out.  They run the same truncated_series kernel as every other row.
SUITE_HEAVY = frozenset(("eq2.29", "eq2.36"))


def suite_cases(builtin: list[dict]) -> list[dict]:
    """Grid-file rows drawn from the builtin suite (``catalog.default_cases("both")``).

    The middle row of each identity's corrected grid, except SUITE_HEAVY, then
    every as-printed refutation witness.  Like the builtin suite, the rows do
    not depend on the seed.
    """
    by_id: dict[str, list[dict]] = {}
    for row in builtin:
        if row["variant"] == "corrected" and row["identity"] not in SUITE_HEAVY:
            by_id.setdefault(row["identity"], []).append(row)
    rows = [grid_rows[len(grid_rows) // 2] for grid_rows in by_id.values()]
    return rows + [row for row in builtin if row["variant"] == "as-printed"]


def quad_gf_cases(seed: int, per_id: int) -> list[dict]:
    """Grid-file rows for ``eulersum verify --grid``: per_id rows per identity."""
    rng = random.Random(f"quad_gf:{seed}")
    rows = []
    for ident, draw in QUAD_GF_SAMPLERS.items():
        for u in grid(per_id):
            rows.append({"identity": ident, "params": draw(u, rng)})
    rng.shuffle(rows)
    return rows


# Identities whose closed form averages over 1 ms per case at the reference
# commit.  closed_sweep takes one candidate per grid point for these and
# CHEAP_DRAWS for every other identity: the cheap cases add little time but
# make the median latency steady from seed to seed.
EXPENSIVE = frozenset((
    "eq1.19", "eq1.23", "eq1.30", "eq2.13", "eq2.18", "eq2.19", "eq2.20", "eq2.21",
    "eq2.22", "eq2.27", "eq2.28", "eq2.29", "eq2.36", "eq2.37", "eq3.15", "eq3.16",
    "eq4.7", "eq4.10", "eq4.11"))
CHEAP_DRAWS = 6


def closed_sweep_cases(seed: int, points: int, pool: dict) -> list[dict]:
    """Cases for every identity at each of ``points`` grid points of the cost axis.

    The pool holds, for every identity, a list of candidates per grid point,
    with their closed-form values recorded at the reference commit; the seed
    picks which candidates run.
    """
    rng = random.Random(f"closed_sweep:{seed}")
    rows = []
    for ident in sorted(pool):
        grid_points = pool[ident]
        if len(grid_points) != points:
            raise ValueError(f"pool has {len(grid_points)} grid points for {ident}, "
                             f"need {points}")
        draws = 1 if ident in EXPENSIVE else CHEAP_DRAWS
        for cands in grid_points:
            rows += [dict(c, identity=ident) for c in rng.sample(cands, draws)]
    rng.shuffle(rows)
    return rows


def write_cases(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, sort_keys=True, indent=0)
        fh.write("\n")


def pool_draws(pool_seed: int, points: int, per_point: int) -> dict:
    """The candidates behind closed_pool.json (values filled in by make_pool.py)."""
    rng = random.Random(f"pool:{pool_seed}")
    out = {}
    for ident in sorted(CLOSED_SAMPLERS):
        draw = CLOSED_SAMPLERS[ident]
        out[ident] = [
            [{"params": draw(u, rng)} for _ in range(per_point)]
            for u in grid(points)
        ]
    return out

