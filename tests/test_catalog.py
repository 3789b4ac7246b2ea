"""The catalog's declarations: parameter kinds and their derived validation,
and summand specs with the terms and tail expansions derived from them."""
import dataclasses
import io
import json
import math
from collections import OrderedDict
from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest

from eulersum import (
    DomainError,
    GfKind,
    GridResult,
    IdentityCase,
    SeriesConfig,
    Status,
    Summand,
    Variant,
    catalog,
    cli,
    linear_sums,
    oracle,
    verify_identity,
)
from eulersum.catalog import _window

# values outside each real kind; an Integer(n) kind is broken by n - 1 and n + 1/2
_BREAKING = {
    catalog.positive: (0.0, -1.5),
    catalog.nonnegative: (-0.5,),
    catalog.inside_unit: (1.0, -1.0),
    catalog.positive_below_one: (0.0, -0.5, 1.0),
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


def _expansion_at(e, x):
    # the truncated expansion at the integer x in mpmath, with the stated
    # remainder e.eps x^-J (ln x)^g, and the roundoff allowance of its float
    # coefficients
    mpmath = pytest.importorskip("mpmath")
    x = mpmath.mpf(x)
    lx = mpmath.log(x)
    parts = [c * (-1) ** (p * int(x)) * x ** -j * lx ** l for (p, j, l), c in e.coefs.items()]
    return (mpmath.fsum(parts), e.eps * x ** -e.J * lx ** e.g,
            8 * np.finfo(float).eps * mpmath.fsum(abs(t) for t in parts))


def _harmonic_mp(m, alternating, x):
    mpmath = pytest.importorskip("mpmath")
    if not alternating:
        return mpmath.harmonic(x) if m == 1 else mpmath.zeta(m) - mpmath.zeta(m, x + 1)
    # H-bar_x^(m) = eta(m) - (-1)^x A_m(x), A_m(x) = sum_(i>=1) (-1)^(i-1)/(x+i)^m
    lo, hi = mpmath.mpf(x + 1) / 2, mpmath.mpf(x + 2) / 2
    a = ((mpmath.digamma(hi) - mpmath.digamma(lo)) / 2 if m == 1
         else (mpmath.zeta(m, lo) - mpmath.zeta(m, hi)) / 2 ** m)
    return mpmath.altzeta(m) - (-1) ** x * a


@pytest.mark.parametrize("n", [32, 4096])
@pytest.mark.parametrize("K", [2, 5, 9])
@pytest.mark.parametrize("m, alternating", [(1, False), (2, False), (3, False), (7, False),
                                            (1, True), (2, True), (3, True)])
def test_harmonic_expansion_within_its_remainder(m, alternating, K, n):
    # H_x, H_x^(m) = zeta(m) - zeta(m, x+1) and H-bar_x^(m) = eta(m) - (-1)^x A_m(x)
    # against mpmath at 40 digits, at x = n and 10 n
    mpmath = pytest.importorskip("mpmath")
    e = oracle._harmonic_expansion(m, alternating, K, float(n), math.log(n))
    assert e.v == 0 and e.J == K and e.g == (m == 1 and not alternating)
    with mpmath.workdps(40):
        for x in (n, 10 * n):
            got, rest, roundoff = _expansion_at(e, x)
            assert abs(_harmonic_mp(m, alternating, x) - got) <= rest + roundoff, x


@pytest.mark.parametrize("summand, n", [
    (Summand((), ((0.5, 1), ((0.5, 2), 1))), 32),
    (Summand((), ((10 / 3, 3),)), 32),
    (Summand((), ((1.0, 2),), binom=(3, 0.5)), 32),
    (Summand((), binom=(60, 0.5)), 4096),
    (Summand((), ((2.5, 1),), binom=(60, 2.5)), 4096),
])
@pytest.mark.parametrize("K", [2, 5, 9])
def test_denominator_expansion_within_its_remainder(summand, n, K):
    # 1/prod (x + s)^p times k!/prod_(i<=k) (x + b + i) against mpmath, at x = n and 10 n
    mpmath = pytest.importorskip("mpmath")
    e = oracle._denominator_expansion(oracle._shifts(summand), K, float(n))
    degree = sum(p for _, p in summand.den) + (summand.binom[0] if summand.binom else 0)
    assert (e.v, e.J, e.g) == (degree, degree + K, 0)
    with mpmath.workdps(40):
        for x in (n, 10 * n):
            want = mpmath.mpf(1)
            for shift, power in summand.den:
                want /= (x + sum(shift if isinstance(shift, tuple) else (shift,))) ** power
            if summand.binom:
                k, b = summand.binom
                want *= mpmath.factorial(k) / mpmath.rf(x + b + 1, k)
            got, rest, roundoff = _expansion_at(e, x)
            assert abs(want - got) <= rest + roundoff, x


def test_denominator_expansion_needs_shifts_small_next_to_n():
    # the binomial series in s/x certifies nothing once s_max (K+D)/(K+1) >= n
    shifts = oracle._shifts(Summand((), ((1e6, 2),)))
    assert oracle._denominator_expansion(shifts, 4, 2.0**21) is not None
    assert oracle._denominator_expansion(shifts, 4, 1e6) is None
    assert oracle._denominator_expansion(oracle._shifts(Summand((), binom=(60, 0.5))), 4,
                                         512.0) is None


# each spec against the hand-written term it replaced, with the same float64
# operations: a power is a product, as in the engine
_TERMS = [
    (Summand((), ((0, 1), (10 / 3, 1))), lambda n, h: 1.0 / (n * (n + 10 / 3))),
    (Summand((), ((0, 2), (0.3, 1))), lambda n, h: 1.0 / (n * n * (n + 0.3))),
    (Summand((1,), ((0.7, 3),)), lambda n, h: h[1] / ((n + 0.7) * (n + 0.7) * (n + 0.7))),
    (Summand((2,), _window(10 / 3, 2)),
     lambda n, h: h[2] / ((n + 10 / 3) * (n + 10 / 3 + 2))),
    (Summand((1, 1), _window(0.3, 1)),
     lambda n, h: h[1] * h[1] / ((n + 0.3) * (n + 0.3 + 1))),
    (Summand((1, 2), ((0, 1), (5, 1))), lambda n, h: h[1] * h[2] / (n * (n + 5))),
    (Summand((1, 1, 1), _window(0.5, 1)),
     lambda n, h: h[1] * h[1] * h[1] / ((n + 0.5) * (n + 1.5))),
    (Summand((1,), ((1.1, 1),), binom=(3, 0.3)),
     lambda n, h: h[1] * (6.0 / (n + (0.3 + 1)) / (n + (0.3 + 2)) / (n + (0.3 + 3)))
     / (n + 1.1)),
    (Summand((2,), ((0, 1), (3, 1)), alternating=True), lambda n, h: h[2] / (n * (n + 3))),
]


@pytest.mark.parametrize("summand, term", _TERMS)
def test_summand_term_matches_hand_written_term(summand, term):
    # two consecutive blocks: the engine's harmonic sums in the second must
    # continue the first's, as one pass over both does here (the accuracy of
    # those sums is test_oracle's); the terms are float64 lists
    harmonics = {m: oracle._partial_terms(Summand((m,), alternating=summand.alternating),
                                          1, 10_000, {})[0]
                 for m in summand.orders}
    running = {}
    for start, stop in ((1, 5000), (5001, 10_000)):
        want = [term(float(n), {m: h[n - 1] for m, h in harmonics.items()})
                for n in range(start, stop + 1)]
        assert oracle._partial_terms(summand, start, stop, running)[0] == want


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


class _Int(int):
    pass


class _Float(float):
    pass


class _Params(Mapping):
    # a Mapping that is not a dict
    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


def _generic_check_params(ident, params):
    # the generic check that check_params runs on every input its exact-type
    # fast path does not take, kept here as referee
    if not (isinstance(params, Mapping) and params.keys() == ident.params.keys()
            and all(map(catalog.is_number, params.values()))):
        try:
            shown = json.dumps(params, default=repr)
        except TypeError:
            shown = repr(params)
        raise DomainError(f"{ident.id} takes numeric parameters {', '.join(ident.params)}; "
                          f"got {shown}")


_PARAMS_CORPUS = [
    {"a": 0.5, "b": 1.0}, {"a": 1, "b": 2}, {"a": 0.5, "b": 1},
    {"a": True, "b": 1.0}, {"a": 0.5, "b": False},
    {"a": _Int(1), "b": 2.0}, {"a": _Float(0.5), "b": 1.0},
    {"a": "0.5", "b": 1.0}, {"a": None, "b": 1.0}, {"a": 1j, "b": 1.0},
    {"a": Fraction(1, 2), "b": 1.0}, {"a": Decimal("0.5"), "b": 1.0},
    {"a": math.nan, "b": 1.0}, {"a": math.inf, "b": -math.inf},
    {"a": 0.5}, {"a": 0.5, "b": 1.0, "c": 2.0}, {"b": 1.0, "a": 0.5}, {},
    MappingProxyType({"a": 0.5, "b": 1.0}), _Params({"a": 0.5, "b": 1.0}),
    _Params({"a": "x", "b": 1.0}), OrderedDict(a=0.5, b=1.0),
    {1: 0.5, "b": 1.0}, {(1,): 0.5, "b": 1.0}, {b"a": 0.5, "b": 1.0},
    [0.5, 1.0], ("a", "b"), "ab", None, 0.5,
]


@pytest.mark.parametrize("params", _PARAMS_CORPUS, ids=range(len(_PARAMS_CORPUS)))
def test_check_params_fast_path_agrees_with_the_generic_check(params):
    # the same inputs pass, and the rest fail with the same message
    ident = catalog.get("eq2.9")
    try:
        _generic_check_params(ident, params)
        want = None
    except DomainError as exc:
        want = str(exc)
    try:
        catalog.check_params(ident, params)
        got = None
    except DomainError as exc:
        got = str(exc)
    assert got == want


@pytest.mark.parametrize("tol", [1e-7, 1, _Float(1e-7), _Int(1), Fraction(1, 10**7), True,
                                 "1e-7", None, 0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("params", [{"a": 1.0, "b": 2.0}, {"a": 1, "b": 2.0},
                                    MappingProxyType({"a": 1.0, "b": 2.0}),
                                    _Params({"a": 1.0, "b": 2.0}), {"b": 2.0, "a": 1.0},
                                    {"a": 1.0}, {"a": True, "b": 2.0}, {1: 1.0, "b": 2.0},
                                    [1.0, 2.0]])
def test_verify_identity_fast_path_agrees_with_the_generic_checks(params, tol):
    # a dict under the declared names and a float tol skip the generic
    # checks: a case they reject gets their reason, in their order (params
    # that ** cannot take, then tol, then the names and numbers), and one
    # they pass gets the record of the same case given as a non-dict Mapping
    ident = catalog.get("eq2.9")
    record = verify_identity(IdentityCase("eq2.9", params, tol))
    try:
        if not (isinstance(params, Mapping) and all(isinstance(k, str) for k in params)):
            _generic_check_params(ident, params)
        if not (catalog.is_number(tol) and 0.0 < tol < math.inf):
            raise DomainError(f"tol must be a finite number > 0, got {tol!r}")
        _generic_check_params(ident, params)
    except DomainError as exc:
        assert (record.status, record.reason) == (Status.INCONCLUSIVE, f"DomainError: {exc}")
        return
    generic = verify_identity(IdentityCase("eq2.9", _Params(params), tol))
    assert record.status is generic.status is Status.CONFIRMED
    assert (record.closed_value, record.oracle_value, record.oracle_error_bound,
            record.terms) == (generic.closed_value, generic.oracle_value,
                              generic.oracle_error_bound, generic.terms)


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
    ("eq2.9", {"a": 0.5, "b": 1.0}, 1),   # one monomial
    ("eq2.27", {"a": 0.5, "k": 1}, 1),    # polynomial numerators: one call each
    ("eq2.36", {"a": 0.5, "k": 1}, 1),
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


@pytest.mark.parametrize("ident_id", sorted(catalog.CATALOG))
def test_oracle_meets_the_target_it_is_given(ident_id):
    # an oracle that ignores its config reports a bound fixed by its own
    # stopping rule, whatever the caller asked for
    ident = catalog.get(ident_id)
    for target in (1e-6, 1e-11):
        res = ident.oracle(SeriesConfig(target_tol=target), **ident.grid[0])
        assert res.abs_error_estimate <= target


_GF_KIND_PARAMS = {
    GfKind.LEMMA13: {"a": 0.7, "s": 3},
    GfKind.LEMMA13_TWO_VAR: {"y": -0.5, "a": 1.2, "s": 2},
    GfKind.HN_H2: {},
    GfKind.HN_HM: {"m": 3},
    GfKind.SQ_DIFF: {},
    GfKind.NESTED_REFLECT: {"y": 0.4, "p": 2, "m": 1},
}


@pytest.mark.parametrize("kind", list(_GF_KIND_PARAMS), ids=lambda k: k.value)
def test_gf_left_sides_do_less_work_at_a_looser_target(kind):
    for x in (-0.85, -0.3, 0.3, 0.6, 0.85):
        loose = linear_sums.gf_lhs(kind, 1e-6, x=x, **_GF_KIND_PARAMS[kind])
        tight = linear_sums.gf_lhs(kind, 1e-11, x=x, **_GF_KIND_PARAMS[kind])
        assert loose.work < tight.work
        assert loose.bound <= 1e-6 and tight.bound <= 1e-11 * max(1.0, abs(tight.value))


# values at and inside the edges of each real kind; an Integer(n) kind takes
# n, n + 1, n + 2, n + 5, 20 and 60
_EDGES = {
    catalog.positive: (1e-300, 1e-12, 1e-3, 0.5, 1.0, 2.5, 1e3, 1e6, 1e300),
    catalog.nonnegative: (0.0, 1e-300, 1e-12, 0.5, 1.0, 2.5, 1e6, 1e300),
    catalog.inside_unit: (-0.999999, -0.5, -1e-300, 0.0, 1e-300, 0.3, 0.85, 0.999999),
    catalog.positive_below_one: (1e-300, 1e-3, 0.3, 0.85, 0.999999),
    catalog.unconstrained: (-1e6, -3.0, -0.5, 0.0, 1e-300, 0.5, 1e6),
}


def _edges(kind):
    if isinstance(kind, catalog.Integer):
        return (kind.minimum, kind.minimum + 1, kind.minimum + 2, kind.minimum + 5, 20, 60)
    return _EDGES[kind]


@pytest.mark.parametrize("ident_id", catalog.ids())
def test_declared_domain_gives_values_or_library_errors(ident_id):
    # each declared parameter in turn at its kind's edges, the others at the
    # first grid point: every case gives a verdict without a raw exception,
    # its values are finite floats or nan (no value: INCONCLUSIVE), and both
    # report writers take every record
    ident = catalog.get(ident_id)
    base = ident.grid[0]
    variants = [Variant.CORRECTED] + [Variant.AS_PRINTED] * ident.has_printed_variant
    records = []
    for name, kind in ident.params.items():
        for value in _edges(kind):
            for variant in variants:
                case = IdentityCase(ident_id, dict(base, **{name: value}), tol=ident.tol,
                                    variant=variant)
                rec = verify_identity(case)
                for got in (rec.closed_value, rec.oracle_value):
                    assert type(got) is float, (name, value, got)
                    assert math.isfinite(got) or rec.status is Status.INCONCLUSIVE
                records.append(rec)
    result = GridResult(records=tuple(records), confirmed=0, refuted=0, inconclusive=0)
    cli._write_json(io.StringIO(), SeriesConfig(), result, 0)
    assert len(cli._csv_lines(result)) == len(records) + 1


def test_guard_refuses_values_that_are_not_finite_real_floats():
    # a complex closed value (x^(n+b) at x < 0) once reached the report
    # writers, which cannot encode it
    for bad, message in ((0.5j, "not a real float"), (complex(0.5, 0.0), "not a real float"),
                         (None, "not a real float"), (math.nan, "double-precision range"),
                         (-math.inf, "double-precision range")):
        closed = catalog._arithmetic_guard("eq0", lambda: bad)
        with pytest.raises(DomainError, match=message):
            closed()
        result = oracle.EvalResult(value=0.5, abs_error_estimate=0.0,
                                   method=oracle.Method.TRUNCATED, work=1)
        oracle_fn = catalog._arithmetic_guard("eq0", lambda: dataclasses.replace(result, value=bad))
        with pytest.raises(DomainError, match=message):
            oracle_fn()
    assert catalog._arithmetic_guard("eq0", lambda: 0.5)() == 0.5
    assert catalog._arithmetic_guard("eq0", lambda: None, returns_value=False)() is None
