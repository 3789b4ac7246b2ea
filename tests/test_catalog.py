"""The catalog's declarations: parameter kinds and their derived validation,
and summand specs with the terms and tail models derived from them."""
import numpy as np
import pytest

from eulersum import (
    DomainError,
    IdentityCase,
    SeriesConfig,
    Status,
    Summand,
    TailParams,
    catalog,
    oracle,
    verify_identity,
)
from eulersum.catalog import _window

# values outside each real kind; an Integer(n) kind is broken by n - 1 and n + 1/2
_BREAKING = {
    catalog.positive: (0.0, -1.5),
    catalog.nonnegative: (-0.5,),
    catalog.inside_unit: (1.0, -1.0),
    catalog.unconstrained: (),
}


def _breaking(kind):
    if isinstance(kind, catalog.Integer):
        return (kind.minimum - 1, kind.minimum + 0.5)
    return _BREAKING[kind]


@pytest.mark.parametrize("ident_id", catalog.ids())
def test_validate_rejects_a_value_outside_each_declared_kind(ident_id):
    ident = catalog.get(ident_id)
    base = ident.grid[0]
    assert set(ident.params) == set(base)
    for name, kind in ident.params.items():
        for bad in _breaking(kind):
            with pytest.raises(DomainError, match=f"^{name}={bad} must "):
                ident.validate(**dict(base, **{name: bad}))


@pytest.mark.parametrize("ident_id, params, message", [
    ("eq2.9", {"a": 1.5, "b": 1.5}, "a and b must differ"),
    ("eq4.2", {"a": 2.0, "b": 2.0}, "a and b must differ"),
    ("eq2.19", {"r": 2, "k": 2, "m": 1}, "k=2 must be an integer >= 3"),
    ("eq4.11", {"r": 3, "k": 1, "m": 2}, "k=1 must be an integer >= 4"),
    ("eq3.9", {"a": 2.0, "b": 1.0, "k": 1, "p": 1}, "resonance"),
    ("eq4.5", {"a": 2.5, "b": 0.5, "k": 2, "p": 2}, "resonance"),
])
def test_validate_runs_the_cross_parameter_check(ident_id, params, message):
    with pytest.raises(DomainError, match=message):
        catalog.get(ident_id).validate(**params)


@pytest.mark.parametrize("summand, growth, degree", [
    (Summand((), ((0, 1), (0.5, 3))), 0, 4),                       # 1
    (Summand((1,), ((0.5, 1), (2.0, 1))), 1, 2),                   # H_n
    (Summand((3,), _window(0.5, 2)), 0, 2),                        # H_n^(m), m > 1
    (Summand((1, 1), binom=(3, 0.5)), 2, 3),                       # H_n^2
    (Summand((1, 2), _window(2.5, 1)), 1, 2),                      # H_n H_n^(2)
    (Summand((1, 1, 1), ((0.5, 1),), binom=(2, 0.5)), 3, 3),       # H_n^3
    (Summand((1,), ((1.0, 2),), binom=(2, 0.5), alternating=True), 0, 4),  # H-bar_n
])
def test_summand_tail_rule(summand, growth, degree):
    assert summand.tail() == TailParams(growth=growth, denom_degree=degree)


# each spec against the hand-written term it replaced, with the same float64
# operations: a power is a product, as in the engine
_TERMS = [
    (Summand((), ((0, 1), (10 / 3, 1))), lambda ns, h: 1.0 / (ns * (ns + 10 / 3))),
    (Summand((), ((0, 2), (0.3, 1))), lambda ns, h: 1.0 / (ns * ns * (ns + 0.3))),
    (Summand((1,), ((0.7, 3),)), lambda ns, h: h[1] / ((ns + 0.7) * (ns + 0.7) * (ns + 0.7))),
    (Summand((2,), _window(10 / 3, 2)),
     lambda ns, h: h[2] / ((ns + 10 / 3) * (ns + 10 / 3 + 2))),
    (Summand((1, 1), _window(0.3, 1)),
     lambda ns, h: h[1] * h[1] / ((ns + 0.3) * (ns + 0.3 + 1))),
    (Summand((1, 2), ((0, 1), (5, 1))), lambda ns, h: h[1] * h[2] / (ns * (ns + 5))),
    (Summand((1, 1, 1), _window(0.5, 1)),
     lambda ns, h: h[1] * h[1] * h[1] / ((ns + 0.5) * (ns + 1.5))),
    (Summand((1,), ((1.1, 1),), binom=(3, 0.3)),
     lambda ns, h: h[1] * oracle._rbinom(ns, 3, 0.3) / (ns + 1.1)),
    (Summand((2,), ((0, 1), (3, 1)), alternating=True), lambda ns, h: h[2] / (ns * (ns + 3))),
]


@pytest.mark.parametrize("summand, term", _TERMS)
def test_summand_term_matches_hand_written_term(summand, term):
    # two consecutive blocks: the engine's harmonic sums in the second must
    # continue the first's, as one longdouble running sum over both does here;
    # each sum is rounded to float64 once and the term is float64
    ns_all = np.arange(1, 10_001, dtype=np.int64)
    inv = 1.0 / ns_all.astype(np.longdouble)
    sign = np.where(ns_all % 2 == 1, 1.0, -1.0) if summand.alternating else 1.0
    running = {}
    for m in summand.orders:
        inv_m = inv
        for _ in range(m - 1):
            inv_m = inv_m * inv
        running[m] = np.cumsum(inv_m * sign)
    prefix = {m: np.longdouble(0.0) for m in summand.orders}
    for start in (1, 5001):
        ns_int = ns_all[start - 1:start + 4999]
        h = {m: r[start - 1:start + 4999].astype(np.float64) for m, r in running.items()}
        want = term(ns_int.astype(np.float64), h)
        assert want.dtype == np.float64
        assert np.array_equal(oracle._block_terms(summand, ns_int, prefix), want)


@pytest.mark.parametrize("params", [
    {"a": 1.0},                        # a missing name
    {"a": 1.0, "b": 2.0, "c": 3.0},    # an unknown name
    {"a": "x", "b": 2.0},
    {"a": None, "b": 2.0},
    {"a": True, "b": 2.0},             # a bool is not a number
], ids=["missing", "unknown", "string", "none", "bool"])
def test_malformed_parameters_are_inconclusive_with_a_reason(params):
    record = verify_identity(IdentityCase("eq2.9", params, 1e-7))
    assert record.status is Status.INCONCLUSIVE
    assert record.reason.startswith("DomainError: eq2.9 takes numeric parameters a, b; got ")
    with pytest.raises(DomainError, match="takes numeric parameters a, b"):
        catalog.get("eq2.9").validate(**params)


@pytest.mark.parametrize("params, tol, reason", [
    ([0.5, 1.0], 1e-7, "eq2.9 takes numeric parameters a, b; got [0.5, 1.0]"),
    ({(1,): 0.5}, 1e-7, "eq2.9 takes numeric parameters a, b; got {(1,): 0.5}"),
    ({"a": 0.5, "b": 1.0}, "x", "tol must be a finite number > 0, got 'x'"),
    ({"a": 0.5, "b": 1.0}, -1.0, "tol must be a finite number > 0, got -1.0"),
    ({"a": 0.5, "b": 1.0}, float("nan"), "tol must be a finite number > 0, got nan"),
    ({"a": 0.5, "b": 1.0}, float("inf"), "tol must be a finite number > 0, got inf"),
], ids=["list", "tuple-key", "string-tol", "negative-tol", "nan-tol", "inf-tol"])
def test_malformed_case_is_inconclusive_with_a_reason(params, tol, reason):
    # a raw TypeError (the first three) or a DomainError raised from
    # SeriesConfig (the next two) escaped verify_identity before, and an
    # infinite tol confirmed any residual
    record = verify_identity(IdentityCase("eq2.9", params, tol))
    assert record.status is Status.INCONCLUSIVE
    assert record.reason == "DomainError: " + reason
    assert record.terms == 0


def _seeded_draws(n: int, names: tuple[str, ...], s_range=(1, 3)) -> tuple[dict, ...]:
    # the generator the eq1.24, eq1.25 and eq1.31 grids were drawn with
    rng = np.random.default_rng(20240813 + len(names) * 7 + n)
    out = []
    for _ in range(n):
        d = {}
        for name in names:
            if name in ("x", "y"):
                d[name] = round(float(rng.uniform(-0.88, 0.88)), 6)
            elif name == "a":
                d[name] = round(float(rng.uniform(0.05, 3.0)), 6)
            else:
                d[name] = int(rng.integers(s_range[0], s_range[1] + 1))
        out.append(d)
    return tuple(out)


@pytest.mark.parametrize("ident_id, draw", [
    ("eq1.24", (9, ("x", "y", "a", "s"))),
    ("eq1.25", (9, ("x", "a", "s"), (2, 4))),
    ("eq1.31", (8, ("x", "y", "p", "m"), (1, 2))),
])
def test_generating_function_grids_are_the_seeded_draws(ident_id, draw):
    grid = catalog.get(ident_id).grid
    want = _seeded_draws(*draw)
    assert grid == want
    for row, wanted in zip(grid, want):
        assert list(row) == list(wanted)
        assert all(type(v) is type(wanted[k]) for k, v in row.items())


@pytest.mark.parametrize("ident_id, params, n_calls", [
    ("eq2.9", {"a": 0.5, "b": 1.0}, 1),   # one Summand
    ("eq2.27", {"a": 0.5, "k": 1}, 2),    # a signed combination of two
])
def test_series_oracles_call_the_catalog_global_with_config_second(monkeypatch, ident_id,
                                                                   params, n_calls):
    # the benchmark's per-layer trace patches catalog.truncated_series and
    # reads the SeriesConfig from args[1]
    calls = []

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return oracle.truncated_series(*args, **kwargs)

    monkeypatch.setattr(catalog, "truncated_series", recorder)
    catalog.get(ident_id).oracle(SeriesConfig(target_tol=1e-8), **params)
    assert len(calls) == n_calls
    for args, kwargs in calls:
        assert isinstance(args[0], Summand) and isinstance(args[1], SeriesConfig)
        assert not kwargs
