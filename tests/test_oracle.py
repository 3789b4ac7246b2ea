"""Oracle engines: truncated summation, tanh-sinh quadrature, and the
verification driver's status logic."""
import ast
import dataclasses
import functools
import inspect
import math
import sys
import time
import tracemalloc
import warnings

import pytest

from eulersum import (
    ConvergenceError,
    DomainError,
    EvalResult,
    IdentityCase,
    Integrand,
    LN2,
    SeriesConfig,
    Status,
    Summand,
    Variant,
    grid_verify,
    quadrature,
    riemann_zeta,
    truncated_series,
    verify_identity,
)
from eulersum import catalog
from eulersum import oracle as oracle_mod


def test_series_config_guards():
    with pytest.raises(DomainError):
        SeriesConfig(max_terms=5)
    with pytest.raises(DomainError):
        SeriesConfig(min_terms=5)
    with pytest.raises(DomainError):
        SeriesConfig(target_tol=0.0)
    cfg = SeriesConfig()
    assert cfg.max_terms == 10**6 and cfg.min_terms == 128 and cfg.target_tol == 1e-9


def test_eval_result_guard():
    with pytest.raises(DomainError):
        EvalResult(value=1.0, abs_error_estimate=-1.0, method="closed", work=0)


def test_summand_numerator_guards():
    # a numerator is its (coefficient, orders) monomials or the orders of one
    assert Summand((1, 2)).numerator == ((1.0, (1, 2)),)
    assert Summand().numerator == ((1.0, ()),)
    for bad in ({"orders": (1,), "numerator": ((1.0, (2,)),)},
                {"numerator": ((math.inf, (1,)),)},
                {"numerator": ((1.0, (1,)), (2.0, (0,)))},
                {"numerator": ((1.0, (1.5,)),)}):
        with pytest.raises(DomainError):
            Summand(**bad)


def test_truncated_basel():
    cfg = SeriesConfig(target_tol=1e-12)
    res = truncated_series(Summand(den=((0, 2),)), cfg)
    assert abs(res.value - riemann_zeta(2)) <= 1e-12
    assert res.abs_error_estimate <= 1e-12
    assert res.work < 10**6


def test_truncated_known_window():
    cfg = SeriesConfig(target_tol=1e-9)
    res = truncated_series(Summand((1,), ((1.0, 1), (2.0, 1))), cfg)
    assert abs(res.value - 1.0) <= 1e-9


def test_truncated_rejects_divergent():
    cfg = SeriesConfig()
    with pytest.raises(ConvergenceError):
        truncated_series(Summand(den=((0, 1),)), cfg)


_HONEST_SHAPES = [
    (Summand(den=((0, 2),)), riemann_zeta(2)),
    (Summand((1,), ((1.0, 1), (2.0, 1))), 1.0),
    (Summand((1,), ((1.0, 2),)), riemann_zeta(3)),
    (Summand((1,), ((1.0, 1), (2.0, 1)), alternating=True), 2.0 * LN2 - 1.0),
]


def _gf_reference(weight, gf):
    # integral_0^1 weight(y) gf(y) dy at 25 digits, with quadrature's own
    # error estimate far below what the tests resolve
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(25):
        value, err = mpmath.quad(lambda y: weight(y) * gf(y), [0, 1], error=True)
        assert err < 1e-20
        return float(value)


def _window_reference(a, k, gf):
    # sum c_n/((n+a)(n+a+k)) = 1/k int_0^1 (y^(a-1) - y^(a+k-1)) sum c_n y^n dy
    mpmath = pytest.importorskip("mpmath")
    a = mpmath.mpf(a)
    return _gf_reference(lambda y: (y ** (a - 1) - y ** (a + k - 1)) / k, gf)


def _binomial_reference(k, b, gf):
    # 1/C(n+k+b, k) = k int_0^1 t^(n+b) (1-t)^(k-1) dt
    mpmath = pytest.importorskip("mpmath")
    b = mpmath.mpf(b)
    return _gf_reference(lambda t: k * t**b * (1 - t) ** (k - 1), gf)


def _generating_functions():
    # sum c_n y^n for the numerators: with L = -ln(1-y), H_n^2 and H_n^(2)
    # give (L^2 + Li_2)/(1-y) and Li_2/(1-y); H_n H_n^(2) gives
    # (Li_3 + L Li_2 - I/2)/(1-y) with I = int_0^y ln^2(1-t)/t dt; H_n^3 =
    # 6 e_3 + 3 H_n H_n^(2) - 2 H_n^(3), where e_3 of 1, 1/2, ..., 1/n sums to
    # L^3/(1-y); and H-bar_n^2 = sum_(j<=n) (2 (-1)^(j-1) H-bar_(j-1)/j + 1/j^2)
    # gives (2 B + Li_2)/(1-y) with B = int_0^y ln(1-t)/(1+t) dt
    mpmath = pytest.importorskip("mpmath")
    li = mpmath.polylog

    def log_sq(y):
        return (mpmath.log(y) * mpmath.log1p(-y) ** 2 + 2 * mpmath.log1p(-y) * li(2, 1 - y)
                - 2 * li(3, 1 - y) + 2 * mpmath.zeta(3))

    def h1h2(y):
        return (li(3, y) - mpmath.log1p(-y) * li(2, y) - log_sq(y) / 2) / (1 - y)

    def h1sq(y):
        return (mpmath.log1p(-y) ** 2 + li(2, y)) / (1 - y)

    def h1cubed(y):
        return (-mpmath.log1p(-y) ** 3 - 2 * li(3, y)) / (1 - y) + 3 * h1h2(y)

    def hbar_sq(y):
        b = mpmath.log(2) * mpmath.log1p(y) - li(2, (1 + y) / 2) + li(2, mpmath.mpf(1) / 2)
        return (2 * b + li(2, y)) / (1 - y)

    return h1sq, h1cubed, h1h2, hbar_sq


@pytest.fixture(scope="module")
def honest_shapes():
    """_HONEST_SHAPES and the quadratic, cubic, alternating-square and k = 60
    binomial shapes with mpmath values of their generating-function
    integrals (mpmath's plain nsum gets these slowly decaying sums wrong);
    the polynomial numerators H_n^2 - H_n^(2) = 2 e_2, H_n^3 - 3 H_n H_n^(2)
    + 2 H_n^(3) = 6 e_3 and 1 - H_n^(2), whose generating functions are
    L^2/(1-y), L^3/(1-y) and (y - Li_2(y))/(1-y), L = -ln(1-y); and the
    builtin suite's heaviest shapes, H_n^2
    over 1/C(n+k+1/2, k) and H_n over (n+2.5)(n+5.5)."""
    mpmath = pytest.importorskip("mpmath")
    h1sq, h1cubed, h1h2, hbar_sq = _generating_functions()
    window = ((2.5, 1), ((2.5, 1), 1))
    return _HONEST_SHAPES + [
        (Summand((1, 1), ((0.5, 1), ((0.5, 1), 1))), _window_reference(0.5, 1, h1sq)),
        (Summand((1, 1, 1), ((2.5, 1), ((2.5, 2), 1))), _window_reference(2.5, 2, h1cubed)),
        (Summand((1, 2), ((0.5, 1), ((0.5, 1), 1))), _window_reference(0.5, 1, h1h2)),
        (Summand((1, 1), ((0.5, 1), ((0.5, 1), 1)), alternating=True),
         _window_reference(0.5, 1, hbar_sq)),
        (Summand((1, 1), binom=(60, 0.5)), _binomial_reference(60, 0.5, h1sq)),
        (Summand(numerator=((1.0, (1, 1)), (-1.0, (2,))), den=window),
         _window_reference(2.5, 1, lambda y: mpmath.log1p(-y) ** 2 / (1 - y))),
        (Summand(numerator=((1.0, (1, 1, 1)), (-3.0, (1, 2)), (2.0, (3,))), den=window),
         _window_reference(2.5, 1, lambda y: -mpmath.log1p(-y) ** 3 / (1 - y))),
        (Summand(numerator=((1.0, ()), (-1.0, (2,))), den=window),  # 1 - H_n^(2)
         _window_reference(2.5, 1, lambda y: (y - mpmath.polylog(2, y)) / (1 - y))),
    ] + [(Summand((1, 1), binom=(k, 0.5)), _binomial_reference(k, 0.5, h1sq))
         for k in (2, 3, 4, 5)] + [
        (Summand((1,), ((2.5, 1), ((2.5, 3), 1))),
         _window_reference(2.5, 3, lambda y: -mpmath.log1p(-y) / (1 - y))),
    ]


def test_truncated_error_estimate_is_honest(honest_shapes):
    # true error must sit inside the reported estimate on assorted shapes; at
    # 1e-13 the float64 roundoff bound is a large part of the estimate
    cfg = SeriesConfig(target_tol=1e-6)
    for summand, truth in honest_shapes:
        res = truncated_series(summand, cfg)
        assert abs(res.value - truth) <= res.abs_error_estimate, summand
    # sum 1/(n^2 (n+1)) = zeta(2) - 1
    tight = SeriesConfig(target_tol=1e-13)
    for summand, truth in honest_shapes + [(Summand(den=((0, 2), (1, 1))),
                                            riemann_zeta(2) - 1.0)]:
        res = truncated_series(summand, tight)
        assert abs(res.value - truth) <= res.abs_error_estimate <= 1e-13, summand


@pytest.mark.parametrize("min_terms", [10, 100])
def test_tail_bound_is_honest_from_small_n(honest_shapes, min_terms):
    # from a small first N the tail is most of the sum (for the k = 60
    # binomial, N doubles until 60.5 (K+60)/(K+1) < N), so the expansions and
    # the Euler-Maclaurin and Boole remainders carry the bound
    for target in (1e-6, 1e-13):
        cfg = SeriesConfig(min_terms=min_terms, target_tol=target)
        for summand, truth in honest_shapes:
            res = truncated_series(summand, cfg)
            assert abs(res.value - truth) <= res.abs_error_estimate <= target, (summand, target)


def _harmonic_ref(n: int, m: int, alternating: bool):
    # H_n^(m) and H-bar_n^(m) at 40 digits from zeta and digamma values
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        if not alternating:
            return float(mpmath.harmonic(n) if m == 1 else mpmath.zeta(m) - mpmath.zeta(m, n + 1))
        lo, hi = mpmath.mpf(n + 1) / 2, mpmath.mpf(n + 2) / 2
        if m == 1:
            return float(mpmath.log(2) - (-1) ** n * (mpmath.digamma(hi) - mpmath.digamma(lo)) / 2)
        return float(mpmath.altzeta(m) - (-1) ** n * (mpmath.zeta(m, lo) - mpmath.zeta(m, hi)) / 2 ** m)


@pytest.mark.parametrize("alternating", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_float64_harmonic_numerators_within_4_ulp(m, alternating):
    # the compensated running sums, rounded once, across block boundaries
    # (2048 | 2049) and up to 10^6
    summand = Summand(orders=(m,), alternating=alternating)
    at = (1, 2048, 2049, 4096, 10**6)
    running, got = {}, {}
    for start in range(1, at[-1] + 1, 2048):
        stop = min(start + 2047, at[-1])
        h, _ = oracle_mod._partial_terms(summand, start, stop, running)
        assert all(type(v) is float for v in h)
        got.update((n, h[n - start]) for n in at if start <= n <= stop)
    for n in at:
        want = _harmonic_ref(n, m, alternating)
        assert abs(got[n] - want) <= 4 * math.ulp(want), (n, got[n], want)


def test_float64_terms_overflow_and_underflow_without_warnings():
    # the terms' float64 arithmetic may overflow or underflow and must stay
    # silent, with no exception and no warning.  Sixty
    # divisions in the reciprocal binomial; (n + 10^4)^80 overflows at every
    # n, so every term reads 0 and the bound is the per-term allowance
    for summand in (Summand((1, 1), binom=(60, 0.5)), Summand((1,), ((1e4, 80),))):
        res = truncated_series(summand, SeriesConfig())
        assert math.isfinite(res.value) and res.abs_error_estimate > 0
    # degree 200 is refused before anything is summed (the catalog reports
    # it as a DomainError, exit 2 in the CLI)
    with pytest.raises(OverflowError):
        truncated_series(Summand((1,), ((0.5, 200),)), SeriesConfig())


def test_denominator_degree_from_86_is_refused():
    # from degree 86 on (where 4093.0**d overflows) the power sums' closed
    # sides have lost every digit, so eq1.27 there must not be certified
    # into a REFUTED verdict
    assert truncated_series(Summand((1,), ((0.5, 85),)), SeriesConfig()).work == 128
    for summand in (Summand((1,), ((0.5, 86),)), Summand((), ((0.5, 26),), binom=(60, 0.5))):
        with pytest.raises(OverflowError, match="degree 86 >= 86"):
            truncated_series(summand, SeriesConfig())
    rec = verify_identity(IdentityCase("eq1.27", {"a": 0.5, "s": 86}, tol=1e-7))
    assert rec.status is Status.INCONCLUSIVE
    assert rec.reason.startswith("DomainError: ") and "OverflowError" in rec.reason


def test_truncated_adaptive_doubling(honest_shapes):
    # N doubles from min_terms and stops at the first certified N; a cap
    # below that N raises instead of returning an uncertified value
    for min_terms, tol in ((4096, 1e-10), (1000, 1e-12)):
        cfg = SeriesConfig(min_terms=min_terms, target_tol=tol)
        for summand, truth in honest_shapes:
            res = truncated_series(summand, cfg)
            ratio = res.work // min_terms
            assert res.work == min_terms * ratio and ratio & (ratio - 1) == 0
            assert res.abs_error_estimate <= tol
            assert abs(res.value - truth) <= res.abs_error_estimate
            if res.work > min_terms:
                capped = SeriesConfig(min_terms=min_terms, max_terms=res.work // 2,
                                      target_tol=tol)
                with pytest.raises(ConvergenceError):
                    truncated_series(summand, capped)


def test_truncated_doubling_self_consistency():
    # the chosen N and a run forced to start at twice it agree within the
    # combined reported estimates
    summand = Summand((1, 1), ((0.5, 1), (2.5, 1)))
    r1 = truncated_series(summand, SeriesConfig(target_tol=1e-6))
    r2 = truncated_series(summand, SeriesConfig(min_terms=2 * r1.work, target_tol=1e-6))
    assert r2.work == 2 * r1.work
    assert abs(r1.value - r2.value) <= r1.abs_error_estimate + r2.abs_error_estimate


def _count_builds(monkeypatch):
    # records, per _tail call, the denominator expansions it built and
    # whether it returned a tail; builds holds every build
    builds, tails = [], []
    build, tail = oracle_mod._denominator_expansion, oracle_mod._tail

    def counted_build(*args):
        builds.append(args)
        return build(*args)

    def counted_tail(*args):
        before = len(builds)
        result = tail(*args)
        tails.append((len(builds) - before, result))
        return result

    monkeypatch.setattr(oracle_mod, "_denominator_expansion", counted_build)
    monkeypatch.setattr(oracle_mod, "_tail", counted_tail)
    return builds, tails


def test_tail_builds_its_expansion_once(monkeypatch):
    # over the builtin suite each tail sizes its order before it builds, so
    # it builds its expansion once and never grows the order, and the
    # max_terms test reads rho without building one
    builds, tails = _count_builds(monkeypatch)
    series = []
    monkeypatch.setattr(catalog, "truncated_series",
                        lambda summand, config: series.append(summand)
                        or oracle_mod.truncated_series(summand, config))
    result = grid_verify(catalog.default_cases("both"))
    assert (result.confirmed, result.refuted, result.inconclusive) == (213, 3, 0)
    assert len(tails) == len(series) > 0  # each series certifies at its first N
    assert all(tail is not None and count == 1 for count, tail in tails)
    assert len(builds) == len(tails)


def test_tail_grows_its_order_when_the_sized_order_falls_short(monkeypatch):
    # the one-order growth stays as the fallback: sized one order short, the
    # tail builds twice and its remainder still meets half the budget
    summand = Summand((1, 1), ((2.5, 1), ((2.5, 1), 1)))
    shifts, n, budget = oracle_mod._shifts(summand), 128, 2.5e-11
    value, bound, _ = oracle_mod._tail(summand, shifts, n, budget)
    order = oracle_mod._order

    def short(summand, shifts, x, logn, half):
        K, _ = order(summand, shifts, x, logn, half)
        return K - 1, oracle_mod._numerator_expansion(summand, K - 1, x, logn)

    monkeypatch.setattr(oracle_mod, "_order", short)
    builds, tails = _count_builds(monkeypatch)
    grown, grown_bound, _ = oracle_mod._tail(summand, shifts, n, budget)
    assert [count for count, _ in tails] == [2] and len(builds) == 2
    assert grown_bound <= budget and abs(grown - value) <= bound + grown_bound


@pytest.mark.parametrize("least", range(1, 5))
@pytest.mark.parametrize("lo, hi", [(1, 1), (1, 3), (2, 3), (3, 3), (4, 3), (2, 16)])
def test_least_bisects_its_range(lo, hi, least):
    # the least n in [lo, hi] with fits(n); hi, untested, when none below fits
    tested = []
    fits = lambda n: tested.append(n) or n >= least  # noqa: E731
    want = min(max(lo, least), hi) if lo <= hi else hi
    assert oracle_mod._least(fits, lo, hi) == want
    assert hi not in tested


def test_order_is_the_least_order_that_fits(monkeypatch, honest_shapes):
    # the seeded search gives the K a scan from K = 1 gives, at every _order
    # call of the builtin suite and of the honest shapes at two targets
    calls = []
    order = oracle_mod._order

    def recorded(*args):
        calls.append(args)
        return order(*args)

    monkeypatch.setattr(oracle_mod, "_order", recorded)
    grid_verify(catalog.default_cases("both"))
    for summand, _ in honest_shapes:
        for target in (1e-6, 1e-13):
            truncated_series(summand, SeriesConfig(target_tol=target))
    monkeypatch.setattr(oracle_mod, "_order", order)
    assert len(calls) > 200
    seeded = [order(*args)[0] for args in calls]
    cap = oracle_mod._MAX_TAIL_ORDER
    monkeypatch.setattr(oracle_mod, "_least",  # a scan from 1, whatever the guess
                        lambda fits, lo, hi: next((K for K in range(1, cap) if fits(K)), cap))
    assert seeded == [order(*args)[0] for args in calls]


@pytest.mark.parametrize("ident_id", ["eq2.27", "eq2.36"])
def test_polynomial_numerators_sum_in_one_series(ident_id, monkeypatch):
    # H_n^2 - H_n^(2) and the cubic Stirling window are one Summand each:
    # one truncated_series call per record, certified at the first N
    calls = []

    def recorder(summand, config):
        calls.append(summand)
        return oracle_mod.truncated_series(summand, config)

    monkeypatch.setattr(catalog, "truncated_series", recorder)
    ident = catalog.get(ident_id)
    for params in ident.grid:
        calls.clear()
        rec = verify_identity(IdentityCase(ident_id, params, tol=ident.tol))
        assert rec.status is Status.CONFIRMED and rec.terms == 128 and len(calls) == 1


def test_quadrature_values():
    res = quadrature(Integrand.LOG_POW_MOMENT, {"a": 1.0, "m": 2}, tol=1e-12)
    assert abs(res.value - 2.0) <= 1e-12
    res = quadrature(Integrand.LOG_POW_MOMENT, {"a": 2.0, "m": 1}, tol=1e-12)
    assert abs(res.value + 0.75) <= 1e-12


def test_quadrature_guards():
    with pytest.raises(DomainError):
        quadrature(Integrand.LOG_POW_MOMENT, {"a": 1.0, "m": 2}, tol=1e-14)
    with pytest.raises(DomainError):
        quadrature(Integrand.LOG_POW_MOMENT, {"a": -1.0, "m": 2})
    with pytest.raises(DomainError):
        quadrature("no_such_integrand", {})
    # a missing key, a non-numeric a, an m that is not an integer (a bool is
    # not one), an a past the float range
    for params in ({"a": 1.0}, {"a": "x", "m": 2}, {"a": 1.0, "m": 2.5},
                   {"a": 1.0, "m": True}, {"a": 10**400, "m": 2}):
        with pytest.raises(DomainError, match="a finite number a and an integer m"):
            quadrature(Integrand.LOG_POW_MOMENT, params)


def test_quadrature_non_finite_integrand_is_domain_error():
    # ln(1-x)^-1 divides by 0 at x = 0
    with pytest.raises(DomainError, match="not finite"):
        quadrature(Integrand.LOG_POW_MOMENT, {"a": 1.0, "m": -1})


@pytest.mark.parametrize("a", [0.3, 1.0, 4.0])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_log_pow_moment_bound_holds(a, m):
    # int_0^1 x^(a-1) ln^m(1-x) dx is the m-th derivative of B(a, s) at s = 1
    mpmath = pytest.importorskip("mpmath")
    res = quadrature(Integrand.LOG_POW_MOMENT, {"a": a, "m": m})
    with mpmath.workdps(30):
        want = float(mpmath.diff(lambda s: mpmath.beta(a, s), 1, m))
    assert abs(res.value - want) <= res.abs_error_estimate


_LEMMA_POINTS = [(x, n, 2) for x in (0.1, 0.5, 0.85, 0.999) for n in (1, 5)]
_LEMMA_POINTS += [(0.85, 1, 1), (0.85, 5, 3)]


@pytest.mark.parametrize("x, n, m", _LEMMA_POINTS)
def test_lemma_moment_bounds_hold(x, n, m, lemma_moment_ref):
    b = 0.5
    ref = functools.lru_cache(maxsize=None)(lemma_moment_ref)

    # the catalog oracles of eq1.19 (a > 0) and eq1.23 (a = 0) sum the
    # series term by term; the reference takes about 0.4 s at 0.999, so there
    # only the point's own n and m are checked
    moment, zero_moment = catalog.get("eq1.19"), catalog.get("eq1.23")
    cfg = SeriesConfig(target_tol=moment.tol / 10.0)

    def oracle(a, **p):
        return moment.oracle(cfg, a=a, **p) if a else zero_moment.oracle(cfg, **p)

    points = [(nn, mm) for nn in (n, 60) for mm in (1, 2, 3)] if x < 0.99 else [(n, m)]
    for nn, mm in points:
        for a in (0.7, 3.0, 0.0):
            res = oracle(a, x=x, b=b, n=nn, m=mm)
            assert res.method is oracle_mod.Method.TRUNCATED and res.work >= 1
            # the contract of every generating-function oracle: relative above 1
            assert res.abs_error_estimate <= cfg.target_tol * max(1.0, abs(res.value))
            assert abs(res.value - ref(x, nn + b, mm, a=a)) <= \
                res.abs_error_estimate, (nn, mm, a)

    # past the double range: every term underflows, or (k+a)^m overflows,
    # with no exception and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (0.7, 0.0):
            deep = oracle(a, x=x, b=b, n=10**5, m=m)
            assert deep.abs_error_estimate > 0.0
            if x ** 10**5 == 0.0:
                assert deep.value == 0.0
            try:
                steep = oracle(a, x=x, b=b, n=n, m=400)
            except DomainError:
                continue
            assert abs(steep.value - ref(x, n + b, 400, a=a)) <= \
                steep.abs_error_estimate
    for bad_x in (0.0, -0.5):
        for a in (0.7, 0.0):
            with pytest.raises(DomainError, match="0 < x < 1"):
                oracle(a, x=bad_x, b=b, n=n, m=m)


def test_quadrature_evaluates_each_node_once(monkeypatch):
    # one integrand call per level, no node twice; the nested levels sum to
    # one evaluation of the last level's full rule
    calls = []
    build = oracle_mod._build_integrand

    def counting(integrand_id, params):
        f = build(integrand_id, params)

        def counted(x, omx):
            calls.append(list(zip(x, omx)))  # x rounds to 1 where 1-x does not
            return f(x, omx)

        return counted

    monkeypatch.setattr(oracle_mod, "_build_integrand", counting)
    params = catalog.get("eq2.2").grid[0]
    res = oracle_mod.quadrature(Integrand.LOG_POW_MOMENT, params, tol=1e-11)
    assert res.work == 195
    assert [len(c) for c in calls] == [97, 98]
    assert len(set(calls[0] + calls[1])) == 195

    f = build(Integrand.LOG_POW_MOMENT, params)
    x, omx, w = oracle_mod._tanh_sinh_nodes(4, nested=False)
    assert len(x) == 195
    wf = [wi * fi for wi, fi in zip(w, f(x, omx))]
    flat = math.fsum(wf) / 16.0
    assert abs(res.value - flat) <= 4.0 * sys.float_info.epsilon * math.fsum(map(abs, wf)) / 16.0


def test_lemma_oracles_near_one():
    # x -> 1: the moment series run long but in bounded blocks
    lemma = catalog.get("eq1.19")
    cfg = SeriesConfig(target_tol=lemma.tol / 10.0)
    params = {"x": 0.999, "a": 0.5, "b": 0.5, "n": 1, "m": 2}
    start = time.perf_counter()
    lemma.oracle(cfg, **params)
    assert time.perf_counter() - start < 0.5
    tracemalloc.start()
    try:
        lemma.oracle(cfg, **params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # closer to 1 the m = 1 power-law bound at the 200 000-term cap, about
    # 1/200000, misses target/2 = 5e-11; for m = 2 it is about
    # 1/(2 * 200000^2) = 1.25e-11, which meets it at every x < 1
    with pytest.raises(ConvergenceError):
        catalog.get("eq1.23").oracle(cfg, x=0.999999, b=0.5, n=1, m=1)
    # at 0.99999 and 0.999999 the power-law tail bound stops both series near
    # 7e4 and 1e5 terms; mpmath's default nsum misses these sums by about
    # 6e-9, Euler-Maclaurin (method 'e') does not
    mpmath = pytest.importorskip("mpmath")
    for x in (0.99999, 0.999999):
        shifted = lemma.oracle(cfg, **dict(params, x=x))
        zero = catalog.get("eq1.23").oracle(cfg, x=x, b=0.5, n=1, m=2)
        for res, a in ((shifted, 0.5), (zero, 0.0)):
            with mpmath.workdps(25):
                xm, am, c = mpmath.mpf(x), mpmath.mpf(a), mpmath.mpf(1.5)
                want = mpmath.nsum(
                    lambda k: xm ** (k + am + c) / ((k + am) ** 2 * (k + am + c)),
                    [1, mpmath.inf], method="e")
            assert abs(res.value - float(want)) <= res.abs_error_estimate


def test_verify_identity_statuses():
    ok = verify_identity(IdentityCase("eq2.13", {"a": 1.0, "k": 1, "m": 1}, tol=1e-8))
    assert ok.status is Status.CONFIRMED
    bad = verify_identity(IdentityCase("eq2.9", {"a": 1.0, "b": 2.0}, tol=1e-8,
                                       variant=Variant.AS_PRINTED))
    assert bad.status is Status.REFUTED
    assert bad.abs_residual == pytest.approx(1.25, abs=1e-9)
    assert bad.oracle_error_bound <= 1e-9
    guard = verify_identity(IdentityCase("eq3.9", {"a": 2.0, "b": 1.0, "k": 1, "p": 1},
                                         tol=1e-8))
    assert guard.status is Status.INCONCLUSIVE
    assert guard.reason.startswith(("DomainError: ", "PoleError: "))
    assert ok.reason == bad.reason == ""
    assert ok.terms >= 128


def test_verify_unknown_identity_raises():
    with pytest.raises(DomainError):
        verify_identity(IdentityCase("eq9.9", {}, tol=1e-8))


def test_verify_inconclusive_when_oracle_cannot_meet_tol():
    # a tolerance far below what max_terms can certify must never refute;
    # the tail certifies eq2.22 to 1e-11 from N = 10 on, so the target here
    # is under the float64 partial sum's own roundoff bound
    cfg = SeriesConfig(max_terms=1000)
    rec = verify_identity(
        IdentityCase("eq2.22", {"a": 0.5, "k": 1}, tol=1e-14), cfg)
    assert rec.status is Status.INCONCLUSIVE
    assert rec.reason.startswith("ConvergenceError: ")
    assert "max_terms=1000" in rec.reason


@pytest.mark.parametrize("ident_id, params", [("eq4.13", {"a": 1e6, "k": 1, "m": 1}),
                                              ("eq4.3", {"a": 1e6, "s": 2})])
def test_large_shift_witnesses_never_read_refuted(ident_id, params, monkeypatch):
    # sums near 6.9e-7 whose shift is as large as max_terms: no N up to the
    # cap has a tail expansion, nothing may be certified without one, and
    # the oracle says so before it sums a term
    def no_sum(*args):
        raise AssertionError("the partial sum ran")

    monkeypatch.setattr(oracle_mod, "_partial_terms", no_sum)
    rec = verify_identity(IdentityCase(ident_id, params, tol=catalog.get(ident_id).tol))
    assert rec.status is Status.INCONCLUSIVE
    assert rec.reason.startswith("ConvergenceError: ") and "not small next to N" in rec.reason


def test_verify_inconclusive_when_oracle_too_loose_to_refute(monkeypatch):
    # a residual over tol with an oracle bound over tol/10 is neither verdict
    ident = catalog.get("eq2.13")
    loose = lambda cfg, **p: EvalResult(value=ident.closed(Variant.CORRECTED, **p) + 1e-3,
                                        abs_error_estimate=1e-4, method="truncated", work=7)
    monkeypatch.setitem(catalog.CATALOG, "eq2.13", dataclasses.replace(ident, oracle=loose))
    rec = verify_identity(IdentityCase("eq2.13", {"a": 1.0, "k": 1, "m": 1}, tol=1e-8))
    assert rec.status is Status.INCONCLUSIVE
    assert rec.terms == 7
    assert "oracle bound 1.000e-04 exceeds tol/10" in rec.reason


def test_grid_verify_order_counts_and_empty():
    assert grid_verify([]).records == ()
    cases = [
        IdentityCase("eq2.13", {"a": 1.0, "k": 1, "m": 1}, tol=1e-7),
        IdentityCase("eq2.9", {"a": 1.0, "b": 2.0}, tol=1e-7, variant=Variant.AS_PRINTED),
        IdentityCase("eq3.9", {"a": 2.0, "b": 1.0, "k": 1, "p": 1}, tol=1e-7),
    ]
    result = grid_verify(cases)
    assert [r.case.identity_id for r in result.records] == ["eq2.13", "eq2.9", "eq3.9"]
    assert (result.confirmed, result.refuted, result.inconclusive) == (1, 1, 1)


def test_verify_determinism():
    case = IdentityCase("eq2.14", {"a": 2.5, "m": 2}, tol=1e-7)
    a = verify_identity(case)
    b = verify_identity(case)
    assert a == b


def test_default_suite_shape():
    cases = catalog.default_cases(variant="both")
    assert 190 <= len(cases) <= 260
    printed = [c for c in cases if c.variant is Variant.AS_PRINTED]
    assert sorted({c.identity_id for c in printed}) == ["eq2.9", "eq3.15", "eq4.2"]
    corrected = [c for c in cases if c.variant is Variant.CORRECTED]
    assert {c.identity_id for c in corrected} >= {
        "eq1.27", "eq1.28", "eq2.13", "eq2.14", "eq2.18", "eq2.19", "eq2.20",
        "eq2.21", "eq2.22", "eq2.27", "eq2.28", "eq2.29", "eq2.36", "eq2.37",
        "eq3.9", "eq3.11", "eq3.13", "eq3.15", "eq3.16", "eq4.3", "eq4.5",
        "eq4.7", "eq4.10", "eq4.11", "eq4.12", "eq4.13",
    }


def test_catalog_validates_grids():
    # every default grid point satisfies its own identity's preconditions
    for ident_id in catalog.ids():
        ident = catalog.get(ident_id)
        for params in ident.grid:
            ident.validate(**params)


def test_oracle_takes_only_constants_and_zeta_values_from_specfun():
    # the oracles share no summation or special-function code with the closed
    # sides, which specfun's evaluators (alternating_sum, polylog, ...) feed
    tree = ast.parse(inspect.getsource(oracle_mod))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "specfun":
                imported += [alias.name for alias in node.names]
            elif node.module is None:
                assert "specfun" not in [alias.name for alias in node.names]
    assert imported
    assert all(name.isupper() or "zeta" in name for name in imported), imported
