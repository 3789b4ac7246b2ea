"""Linear/quadratic/cubic sum closed forms: exact regressions, oracle
agreement at spot points, and the generating-function identities."""
import ast
import math
import pathlib
import random
import sys
import time

import numpy as np
import pytest

from eulersum import (
    DomainError,
    GfKind,
    LN2,
    alt_sum_Hm_window,
    cubic_stirling_window,
    gf_lhs,
    gf_rhs,
    gf_two_sided,
    polylog_moment,
    riemann_zeta,
    sum_H1_bilinear,
    sum_H1_power,
    sum_H1cubed_window,
    sum_H1H2_window,
    sum_H1sq_window,
    sum_Hm_window,
    sum_recip_shift,
    sum_shiftedH_over_nsq,
    sum_sq_diff_window,
)
from eulersum import (
    ConvergenceError,
    catalog,
    linear_sums,
    param_harmonic,
    shifted_harmonic,
    y_moment,
)
from eulersum.oracle import SeriesConfig, Summand, truncated_series

Z2 = riemann_zeta(2)
Z3 = riemann_zeta(3)
Z4 = riemann_zeta(4)


def _oracle(summand, n=10**6, tol=1e-9):
    cfg = SeriesConfig(max_terms=n, target_tol=tol)
    return truncated_series(summand, cfg).value


class TestReciprocalShiftSum:
    def test_telescoping(self):
        assert sum_recip_shift(1.0, 1) == pytest.approx(1.0, rel=1e-13)

    def test_half_shift(self):
        assert sum_recip_shift(0.5, 1) == pytest.approx(4.0 - 4.0 * LN2, rel=1e-13)

    def test_shift_two_order_two(self):
        # 3/8 - zeta(2,3)/2 collapses to 1 - pi^2/12
        assert sum_recip_shift(2.0, 2) == pytest.approx(1.0 - math.pi**2 / 12.0, rel=1e-13)

    def test_against_oracle(self):
        # the oracle's target is below the rel=1e-10 compared here
        for a in (0.5, 1.5, 10.0 / 3.0):
            for s in (1, 2, 3):
                want = _oracle(Summand((), ((0, 1), (a, s))), tol=1e-13)
                assert sum_recip_shift(a, s) == pytest.approx(want, rel=1e-10)

    def test_zero_shift_is_zeta(self):
        for s in (1, 2, 3):
            assert sum_recip_shift(0.0, s) == pytest.approx(riemann_zeta(s + 1), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            sum_recip_shift(-0.5, 2)


class TestPowerSum:
    def test_unit_shift_squares(self):
        assert sum_H1_power(1.0, 2) == pytest.approx(Z3, rel=1e-13)

    def test_unit_shift_cubes(self):
        # collapses to (3/2) zeta(4) - zeta(2)^2/2 = pi^4/360
        assert sum_H1_power(1.0, 3) == pytest.approx(math.pi**4 / 360.0, rel=1e-13)

    def test_against_oracle(self):
        for a in (0.5, 2.5):
            for s in (2, 3):
                # the oracle's target is below the rel=1e-8 compared here
                want = _oracle(Summand((1,), ((a, s),)), tol=1e-12)
                assert sum_H1_power(a, s) == pytest.approx(want, rel=1e-8)


class TestPolylogMoment:
    def test_values(self):
        assert polylog_moment(1, 1.0) == pytest.approx(1.0, rel=1e-13)
        assert polylog_moment(2, 1.0) == pytest.approx(Z2 - 1.0, rel=1e-13)
        assert polylog_moment(3, 1.0) == pytest.approx(Z3 - Z2 + 1.0, rel=1e-13)

    def test_against_quadrature(self):
        # int_0^1 x^(a-1) Li_m(x) dx at 30 digits
        mpmath = pytest.importorskip("mpmath")
        for m in (1, 2, 3, 4):
            for a in (0.5, 1.0, 2.5):
                with mpmath.workdps(30):
                    want = float(mpmath.quad(lambda x: x ** (a - 1) * mpmath.polylog(m, x),
                                             [0, 1]))
                assert polylog_moment(m, a) == pytest.approx(want, rel=1e-13, abs=0)


class TestBilinear:
    def test_unit_case(self):
        assert sum_H1_bilinear(1.0, 2.0) == pytest.approx(1.0, rel=1e-13)

    def test_printed_variant_is_wrong(self):
        assert sum_H1_bilinear(1.0, 2.0, as_printed=True) == pytest.approx(-0.25, abs=1e-12)

    def test_against_oracle(self):
        for (a, b) in ((0.5, 1.5), (2.5, 10.0 / 3.0)):
            want = _oracle(Summand((1,), ((a, 1), (b, 1))), tol=1e-12)
            assert sum_H1_bilinear(a, b) == pytest.approx(want, rel=1e-8)

    def test_requires_distinct_shifts(self):
        with pytest.raises(DomainError):
            sum_H1_bilinear(1.0, 1.0)


class TestWindows:
    def test_order_one_values(self):
        assert sum_Hm_window(1.0, 1, 1) == pytest.approx(1.0, rel=1e-13)
        assert sum_Hm_window(1.0, 2, 1) == pytest.approx(7.0 / 8.0, rel=1e-13)

    def test_order_two_reduction(self):
        assert sum_Hm_window(1.0, 1, 2) == pytest.approx(Z2 - 1.0, rel=1e-13)

    def test_squared_window(self):
        assert sum_H1sq_window(1.0, 1) == pytest.approx(Z2 + 1.0, rel=1e-13)

    def test_sq_diff_window(self):
        assert sum_sq_diff_window(1.0, 1) == pytest.approx(2.0, rel=1e-13)

    def test_product_window(self):
        assert sum_H1H2_window(1.0, 1) == pytest.approx(2.0 * Z3 - 1.0, rel=1e-10)

    def test_cubic_stirling_window_unit(self):
        assert cubic_stirling_window(1.0, 1) == pytest.approx(6.0, rel=1e-13)

    def test_cubic_window_unit(self):
        assert sum_H1cubed_window(1.0, 1) == pytest.approx(
            4.0 * Z3 + 2.0 * Z2 + 1.0, rel=1e-10)

    def test_consistency_chain(self):
        # squared window minus order-2 window equals the square-difference window
        for a in (0.5, 1.0, 2.5):
            for k in (1, 2, 3):
                lhs = sum_H1sq_window(a, k) - sum_Hm_window(a, k, 2)
                assert lhs == pytest.approx(sum_sq_diff_window(a, k), abs=1e-9)

    def test_against_oracle_spot(self):
        a, k = 0.5, 2
        want = _oracle(Summand((1, 1), ((a, 1), (a + k, 1))))
        assert sum_H1sq_window(a, k) == pytest.approx(want, rel=1e-7)
        want = _oracle(Summand((1, 2), ((a, 1), (a + k, 1))))
        assert sum_H1H2_window(a, k) == pytest.approx(want, rel=1e-7)


_BAD_WINDOW_ORDERS = [
    (sum_Hm_window, (1.0, 2.5, 1)),
    (sum_Hm_window, (1.0, 2, 1.7)),
    (sum_H1sq_window, (1.0, 2.9)),
    (sum_Hm_window, (1.0, math.inf, 1)),
    (sum_Hm_window, (1.0, math.nan, 1)),
    (sum_Hm_window, (1.0, 2, math.inf)),
    (sum_Hm_window, (0.0, 2, 1)),
    (alt_sum_Hm_window, (1.0, 2.5, 1)),
    (alt_sum_Hm_window, (1.0, 2, 1.7)),
    (alt_sum_Hm_window, (1.0, math.inf, 1)),
    (alt_sum_Hm_window, (1.0, math.nan, 1)),
    (alt_sum_Hm_window, (0.5, 2, 1)),
]


@pytest.mark.parametrize("window, args", _BAD_WINDOW_ORDERS,
                         ids=[f"{w.__name__}{args}" for w, args in _BAD_WINDOW_ORDERS])
def test_window_orders_are_finite_integers(window, args):
    # k and m were once truncated by int(): k = 2.5 gave the k = 2 value, and
    # inf or nan raised OverflowError or ValueError instead of DomainError
    with pytest.raises(DomainError):
        window(*args)


# The O(k^2) and per-j y_moment window forms that the O(k) running sums
# replaced, kept as references.
def _old_Hm_window(a, k, m):
    br = polylog_moment(m, a)
    br += sum((-1.0) ** (j - 1) * riemann_zeta(m + 1 - j) * param_harmonic(k - 1, j, a)
              for j in range(1, m))
    sgn = (-1.0) ** (m - 1)
    br += sgn * shifted_harmonic(a) * param_harmonic(k - 1, m, a)
    br += sgn * sum(param_harmonic(i, 1, a) / (i + a) ** m for i in range(1, k))
    return br / k


def _old_H1sq_window(a, k):
    br = Z2 * param_harmonic(k, 1, a - 1.0) - shifted_harmonic(a) * param_harmonic(k, 2, a - 1.0)
    br -= sum(param_harmonic(i, 1, a) / (i + a) ** 2 for i in range(1, k))
    br += sum((shifted_harmonic(a + j - 1.0) ** 2 + shifted_harmonic(a + j - 1.0, 2))
              / (a + j - 1.0) for j in range(1, k + 1))
    return br / k


def _old_y_window(a, k, order):
    return sum(y_moment(order, a + j - 1.0) / (a + j - 1.0) for j in range(1, k + 1)) / k


@pytest.mark.parametrize("k", (1, 2, 10, 101, 1024))
def test_windows_match_old_quadratic_forms(k):
    for a in (0.05, 0.5, 2.5):
        for m in (1, 2, 3):
            assert sum_Hm_window(a, k, m) == pytest.approx(_old_Hm_window(a, k, m), rel=1e-12)
        assert sum_H1sq_window(a, k) == pytest.approx(_old_H1sq_window(a, k), rel=1e-12)
        assert sum_sq_diff_window(a, k) == pytest.approx(_old_y_window(a, k, 2), rel=1e-12)
        assert cubic_stirling_window(a, k) == pytest.approx(_old_y_window(a, k, 3), rel=1e-12)


class TestShiftedHOverSquares:
    def test_integer_reductions(self):
        assert sum_shiftedH_over_nsq(0.0) == pytest.approx(2.0 * Z3, rel=1e-14)
        assert sum_shiftedH_over_nsq(1.0) == pytest.approx(2.0 * Z3 + Z2 - 1.0, rel=1e-14)
        for c in (2.0, 3.0):
            want = 2.0 * Z3 + sum(polylog_moment(2, float(j)) for j in range(1, int(c) + 1))
            assert sum_shiftedH_over_nsq(c) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("c", [0.05, 0.3, 0.999, 15.9, 16.0, 25.5, 1e4 + 0.25, 1e6 + 0.5])
    def test_against_mpmath_integral(self, c):
        # sum H_(n+c)/n^2 = 2 zeta(3) + int_0^1 Li_2(x) (1 - x^c)/(1 - x) dx
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(25):
            mc = mpmath.mpf(c)
            integral = mpmath.quad(
                lambda x: mpmath.polylog(2, x) * (1 - x**mc) / (1 - x), [0, 0.5, 1])
            want = float(2 * mpmath.zeta(3) + integral)
        assert sum_shiftedH_over_nsq(c) == pytest.approx(want, rel=1e-13)

    def test_cost_does_not_grow_with_shift(self):
        # O(J) work: a shift of 10^12 costs what a shift of 20 does (about 0.2 ms)
        best = math.inf
        for _ in range(3):
            sum_shiftedH_over_nsq.cache_clear()
            start = time.perf_counter()
            sum_shiftedH_over_nsq(1e12 + 0.5)
            best = min(best, time.perf_counter() - start)
        assert best < 0.01

    def test_non_integer_against_bare_summation(self):
        from eulersum import digamma, EULER_GAMMA

        c = 0.5
        n = np.arange(1, 200001, dtype=float)
        hs = np.array([digamma(v + c + 1.0) + EULER_GAMMA for v in n[:2000]])
        head = float(np.sum(hs / n[:2000] ** 2))
        # crude independent tail from the asymptotic slope
        tail = float(np.sum((np.log(n[2000:] + c) + EULER_GAMMA + 0.5 / (n[2000:] + c))
                            / n[2000:] ** 2))
        crude = head + tail + (np.log(200001.5 + c) + EULER_GAMMA + 1.0) / 200000.5
        assert sum_shiftedH_over_nsq(c) == pytest.approx(crude, abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            sum_shiftedH_over_nsq(-0.5)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                sum_shiftedH_over_nsq(bad)


def _gf_residual(kind, **params):
    # the left side's target is below the 1e-10 the residuals are held to
    return abs(gf_lhs(kind, 1e-12, **params).value - gf_rhs(kind, **params))


class TestGeneratingFunctions:
    def test_lemma13_residual(self):
        assert _gf_residual(GfKind.LEMMA13, x=0.7, a=0.3, s=3) <= 1e-10

    def test_hn_h2_residual(self):
        assert _gf_residual(GfKind.HN_H2, x=0.5) <= 1e-10

    def test_sq_diff_value(self):
        want = math.log(1.5) ** 2 / 1.5
        assert gf_rhs(GfKind.SQ_DIFF, x=-0.5) == pytest.approx(want, rel=1e-12)
        two_sided = gf_two_sided(GfKind.SQ_DIFF, x=-0.5)
        assert two_sided.residual <= 1e-12

    def test_random_draw_residuals(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            x = float(rng.uniform(-0.89, 0.89))
            y = float(rng.uniform(-0.89, 0.89))
            a = float(rng.uniform(0.05, 3.0))
            s = int(rng.integers(2, 4))
            assert _gf_residual(GfKind.LEMMA13, x=x, a=a, s=s) <= 1e-10
            assert _gf_residual(GfKind.LEMMA13_TWO_VAR, x=x, y=y, a=a, s=s) <= 1e-10
            assert _gf_residual(GfKind.NESTED_REFLECT, x=x, y=y, p=1, m=2) <= 1e-10
            assert _gf_residual(GfKind.HN_HM, x=x, m=s) <= 1e-10
            assert _gf_residual(GfKind.HN_H2, x=x) <= 1e-10
            assert gf_rhs(GfKind.SQ_DIFF, x=x) >= 0.0

    def test_moment_identities(self):
        # the moment kinds' left sides are integrals, summed term by term
        for x in (0.3, 0.8):
            for n in (1, 4):
                for m in (2, 3):
                    params = {"x": x, "a": 0.5, "b": 2.0, "n": n, "m": m}
                    lhs = gf_lhs(GfKind.MOMENT_IDENT, 1e-12, **params)
                    assert abs(lhs.value - gf_rhs(GfKind.MOMENT_IDENT, **params)) <= 1e-9
                    params = {"x": x, "b": 0.5, "n": n, "m": m}
                    lhs = gf_lhs(GfKind.MOMENT_IDENT_ZERO, 1e-12, **params)
                    assert abs(lhs.value - gf_rhs(GfKind.MOMENT_IDENT_ZERO, **params)) <= 1e-9

    def test_work_counts(self):
        # direct sums and the moment kinds' series report the terms they
        # summed, and the catalog's direct-sum oracles pass it on
        near, far = (gf_two_sided(GfKind.HN_H2, x=x).work for x in (0.1, -0.8))
        assert 0 < near < far < 1000
        assert gf_lhs(GfKind.MOMENT_IDENT, 1e-12, x=0.3, a=0.5, b=2.0, n=1, m=2).work > 0
        params = catalog.get("eq1.24").grid[0]
        cfg = SeriesConfig()
        oracle = catalog.get("eq1.24").oracle(cfg, **params)
        lhs = gf_lhs(GfKind.LEMMA13_TWO_VAR, cfg.target_tol, **params)
        assert oracle.work == lhs.work > 0

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            gf_rhs(GfKind.LEMMA13, x=1.0, a=0.3, s=3)
        with pytest.raises(DomainError):
            gf_lhs(GfKind.LEMMA13, 1e-10, x=1.0, a=0.3, s=3)
        for target in (0.0, -1e-10, math.nan):
            with pytest.raises(DomainError):
                gf_lhs(GfKind.HN_H2, target, x=0.3)
        # x^(n+b) is complex below 0, so the moment kinds stop at x = 0
        for x in (0.0, -0.5):
            with pytest.raises(DomainError, match="0 < x < 1"):
                gf_rhs(GfKind.MOMENT_IDENT, x=x, a=0.5, b=0.5, n=1, m=2)
            with pytest.raises(DomainError, match="0 < x < 1"):
                gf_lhs(GfKind.MOMENT_IDENT_ZERO, 1e-10, x=x, b=0.5, n=1, m=2)

    def test_moment_two_sided(self):
        # gf_two_sided serves the moment kinds too: its left side is gf_lhs's
        # at the tight target, and the sides agree within that bound
        for kind, params in (
            (GfKind.MOMENT_IDENT, {"x": 0.3, "a": 0.5, "b": 0.5, "n": 1, "m": 2}),
            (GfKind.MOMENT_IDENT_ZERO, {"x": 0.3, "b": 0.5, "n": 1, "m": 2}),
            (GfKind.MOMENT_IDENT_ZERO, {"x": 0.8, "b": 2.0, "n": 4, "m": 3}),
        ):
            two = gf_two_sided(kind, **params)
            lhs = gf_lhs(kind, linear_sums._TWO_SIDED_TARGET, **params)
            assert (two.lhs, two.work) == (lhs.value, lhs.work)
            assert two.residual <= lhs.bound + 4 * sys.float_info.epsilon * abs(two.rhs)


# each kind's catalog identity, whose Integer declarations give the minimums
# gf_rhs and gf_lhs enforce
_GF_IDENTITY_KINDS = {
    "eq1.19": GfKind.MOMENT_IDENT, "eq1.23": GfKind.MOMENT_IDENT_ZERO,
    "eq1.24": GfKind.LEMMA13_TWO_VAR, "eq1.25": GfKind.LEMMA13, "eq1.29": GfKind.HN_H2,
    "eq1.30": GfKind.HN_HM, "eq1.31": GfKind.NESTED_REFLECT, "eq2.25": GfKind.SQ_DIFF,
}
_GF_INTEGER_PARAMS = [
    (ident_id, name, kind.minimum)
    for ident_id in _GF_IDENTITY_KINDS
    for name, kind in catalog.get(ident_id).params.items()
    if isinstance(kind, catalog.Integer)
]


def test_gf_kinds_cover_the_catalog():
    assert set(_GF_IDENTITY_KINDS.values()) == set(GfKind) == set(linear_sums._LHS)


@pytest.mark.parametrize("ident_id, name, minimum", _GF_INTEGER_PARAMS)
def test_gf_integer_parameters_are_checked(ident_id, name, minimum):
    # int() would read 2.5 as 2 and raise a raw ValueError at nan and a raw
    # OverflowError at inf
    kind, base = _GF_IDENTITY_KINDS[ident_id], catalog.get(ident_id).grid[0]
    assert gf_lhs(kind, 1e-10, **base).work > 0
    for bad in (2.5, math.nan, math.inf, minimum - 1):
        params = dict(base, **{name: bad})
        with pytest.raises(DomainError, match=f"{name} must be an integer >= {minimum}"):
            gf_rhs(kind, **params)
        with pytest.raises(DomainError, match=f"{name} must be an integer >= {minimum}"):
            gf_lhs(kind, 1e-10, **params)


_REF_MOMENT_MAX_TERMS = 200_000


def _ref_moment_series(x, a, c, m, target):
    """sum_{k>=1} x^(k+a+c)/((k+a)^m (k+a+c)) as a standalone engine sums it:
    (value, bound, terms), or ConvergenceError past 200 000 terms.

    The count is the least K whose log-space tail bound, the smaller of
    x^(K+1+a+c)/((K+1+a)^m (K+1+a+c)(1-x)) and x^(K+1+a+c)/(m (K+a)^m), is at
    most target/2, by bisection below the count where the geometric bound
    with its denominators dropped meets it (below the cap where that count
    does not fit).  The referee for the moment kinds' gf_lhs.
    """
    lx, l1x = math.log(x), math.log1p(-x)
    log_target = math.log(target) - math.log(2.0)

    def log_tail(k):
        e = (k + 1 + a + c) * lx
        geometric = e - m * math.log(k + 1 + a) - math.log(k + 1 + a + c) - l1x
        power = e - math.log(m) - m * math.log(k + a)
        return min(geometric, power)

    def fits(k):
        return log_tail(k) <= log_target

    k0 = (log_target + l1x) / lx - 1.0 - a - c
    cap = max(1, math.ceil(k0)) if k0 < _REF_MOMENT_MAX_TERMS else _REF_MOMENT_MAX_TERMS
    lo, hi = 1, cap if fits(cap) else _REF_MOMENT_MAX_TERMS
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid + 1
    if not fits(hi):
        raise ConvergenceError("moment series needs more than 200000 terms")
    kas = [k + a for k in range(1, hi + 1)]
    value = math.fsum([x ** (ka + c) * ka ** -m / (ka + c) for ka in kas])
    log_power = min(745.0, -(hi + a + c) * lx)
    roundoff = (sys.float_info.epsilon * (log_power + m + 12.0) * value
                + hi * sys.float_info.min)
    return value, math.exp(log_tail(hi) + 1e-9) + roundoff, hi


def _moment_draws():
    # the benchmark's moment draws (x in (0.1, 0.85), shifts in (0.3, 2.5),
    # n up to 5, m up to 3), points near x = 1 and past the double range
    rng = random.Random(3111)
    draws = [(round(rng.uniform(0.1, 0.85), 6), a, round(rng.uniform(0.3, 2.5), 6),
              rng.randint(1, 5), rng.randint(1, 3))
             for a in (0.0, 0.7) for _ in range(45)]
    draws += [(x, a, 0.5, 1, m) for x in (0.999, 0.9999, 0.99995, 0.999999)
              for a in (0.0, 0.5) for m in (1, 2, 3)]
    draws += [(0.5, 0.7, 0.5, 10**5, 2), (0.85, 0.0, 0.5, 1, 400), (1e-300, 0.0, 2.0, 1, 1)]
    return draws


@pytest.mark.parametrize("target", [1e-10, 1e-11, 1e-6])
def test_moment_left_side_matches_its_referee(target):
    # the moment kinds' left sides keep the standalone engine's arithmetic:
    # the same term count, value and bound at equal target, and the same reach
    for x, a, b, n, m in _moment_draws():
        if a:
            kind, params = GfKind.MOMENT_IDENT, {"x": x, "a": a, "b": b, "n": n, "m": m}
        else:
            kind, params = GfKind.MOMENT_IDENT_ZERO, {"x": x, "b": b, "n": n, "m": m}
        try:
            want = _ref_moment_series(x, a, n + b, m, target)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                gf_lhs(kind, target, **params)
            continue
        got = gf_lhs(kind, target, **params)
        assert (got.value, got.bound, got.work) == want, (x, a, b, n, m)


def _mp_gf_lhs(mpmath, kind, x, y=0.0, a=0.0, s=2, m=2, p=1):
    # the series kinds' left sides at 30 digits, summed until the terms are
    # below 1e-34
    one = mpmath.mpf(1)
    x, y, a = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(a)
    n_max = int(math.log(1e-34) / math.log(float(max(abs(x), abs(y))))) + 10
    acc = h1 = h2 = hm = cx = cy = ix = iy = mpmath.mpf(0)
    for n in range(1, n_max + 1):
        if n > 1:
            cx = x * (cx + one / (n - 1))
            cy = y * (cy + one / (n - 1))
        h1 += one / n
        h2 += one / n**2
        hm += one / mpmath.mpf(n) ** m
        ix += x**n / mpmath.mpf(n) ** p
        iy += y**n / mpmath.mpf(n) ** m
        acc += {
            GfKind.LEMMA13: lambda: x**n * cx / (n + a) ** s,
            GfKind.LEMMA13_TWO_VAR: lambda: (y**n * cx + x**n * cy) / (n + a) ** s,
            GfKind.HN_H2: lambda: h1 * h2 * x**n,
            GfKind.HN_HM: lambda: h1 * hm * x**n,
            GfKind.SQ_DIFF: lambda: (h1**2 - h2) * x**n,
            GfKind.NESTED_REFLECT: lambda: y**n * ix / mpmath.mpf(n) ** m
            + x**n * iy / mpmath.mpf(n) ** p,
        }[kind]()
    return acc


_GF_SERIES_CASES = [
    (GfKind.LEMMA13, {"a": 0.3, "s": 3}, 1e-12),
    # a shift past -n_max: the terms after the cut pass close to a pole
    (GfKind.LEMMA13, {"a": -60.5, "s": 3}, 1e-12),
    (GfKind.LEMMA13_TWO_VAR, {"y": -0.6, "a": 1.7, "s": 2}, 1e-12),
    (GfKind.HN_H2, {}, 1e-12),
    (GfKind.HN_HM, {"m": 3}, 1e-12),
    (GfKind.SQ_DIFF, {}, 1e-12),
    (GfKind.NESTED_REFLECT, {"y": 0.7, "p": 1, "m": 2}, 1e-12),
    # a loose target: a short sum whose cut still lies before the pole
    (GfKind.LEMMA13, {"a": -60.5, "s": 3}, 1e-6),
    (GfKind.MOMENT_IDENT, {"a": 0.7, "b": 0.5, "n": 2, "m": 2}, 1e-12),
    (GfKind.MOMENT_IDENT_ZERO, {"b": 2.0, "n": 1, "m": 1}, 1e-12),
    (GfKind.MOMENT_IDENT_ZERO, {"b": 0.5, "n": 5, "m": 3}, 1e-6),
]


@pytest.mark.parametrize("kind, params, target", _GF_SERIES_CASES,
                         ids=[f"{kind.value}-{i}" for i, (kind, _, _) in enumerate(_GF_SERIES_CASES)])
def test_gf_lhs_bound_holds(kind, params, target, lemma_moment_ref):
    mpmath = pytest.importorskip("mpmath")
    moment = kind in (GfKind.MOMENT_IDENT, GfKind.MOMENT_IDENT_ZERO)
    with mpmath.workdps(30):
        for x in (0.1, 0.5, 0.88, 0.99) if moment else (-0.88, -0.3, 0.5, 0.88):
            got = gf_lhs(kind, target, x=x, **params)
            if moment:
                want = lemma_moment_ref(x, params["n"] + params["b"], params["m"],
                                        a=params.get("a", 0.0))
            else:
                want = _mp_gf_lhs(mpmath, kind, x, **params)
            assert abs(got.value - want) <= got.bound
            # the tail meets target/2; at the tight target the roundoff part
            # can pass it, while staying below 1e-10 of the value
            assert got.bound <= max(target, 1e-10) * max(1.0, abs(got.value))


@pytest.mark.parametrize("a", [-60.5, -60.3, -60.7, -0.5, 0.3])
def test_far_denominator_never_decreases(a):
    # the term-count search bisects on the tail bound, which needs
    # min_{n>N} |n + a| to be non-decreasing in N, also across the pole
    far = [linear_sums._far_denominator(a, n) for n in range(1, 200)]
    assert all(lo <= hi for lo, hi in zip(far, far[1:]))
    assert all(f == min(abs(n + a) for n in range(m + 1, m + 300)) for m, f in enumerate(far, 1))


@pytest.mark.parametrize("kind, params", [
    (GfKind.HN_HM, {"x": -0.5, "m": 400}),
    (GfKind.NESTED_REFLECT, {"x": 0.5, "y": -0.3, "p": 400, "m": 1}),
])
def test_gf_sides_at_high_order(kind, params):
    # n^400 overflows a double; its reciprocal underflows to 0 harmlessly
    lhs = gf_lhs(kind, 1e-12, **params)
    assert abs(lhs.value - gf_rhs(kind, **params)) <= lhs.bound + 1e-15


@pytest.mark.parametrize("x", [-0.88, -0.5, -0.1, 0.1, 0.5, 0.8, 0.95])
def test_hn_h2_right_side_against_mpmath(x):
    # eq1.29's right side takes sum H_n x^n/n^2 from trilogarithms: the
    # Landen form up to x = 1/2, the reflection form above
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        xn, h1, h2, s12, gf = mpmath.mpf(1), 0, 0, 0, 0
        for n in range(1, int(math.log(1e-34) / math.log(abs(x))) + 10):
            xn *= x
            h1 += mpmath.mpf(1) / n
            h2 += mpmath.mpf(1) / n**2
            s12 += h1 * xn / n**2
            gf += h1 * h2 * xn
    assert linear_sums._sum_h_over_nsq_gf(x) == pytest.approx(float(s12), rel=1e-14)
    assert gf_rhs(GfKind.HN_H2, x=x) == pytest.approx(float(gf), rel=1e-14)


@pytest.mark.parametrize("n", [1, 5, 200, 1000])
def test_moment_right_sides_keep_relative_accuracy(n, lemma_moment_ref):
    # the finite sum and the H_1 terms of eq1.19's and eq1.23's right sides
    # cancel to a tail of size x^(n+b), summed as that tail; 0.1^1000
    # underflows a double
    for x in (0.1, 0.5, 0.85) if n < 1000 else (0.5, 0.85):
        for b in (0.5, 2.0):
            for m in (1, 2, 3):
                zero = gf_rhs(GfKind.MOMENT_IDENT_ZERO, x=x, b=b, n=n, m=m)
                assert zero == pytest.approx(lemma_moment_ref(x, n + b, m), rel=1e-12, abs=0)
                shifted = gf_rhs(GfKind.MOMENT_IDENT, x=x, a=0.5, b=b, n=n, m=m)
                assert shifted == pytest.approx(lemma_moment_ref(x, n + b, m, a=0.5),
                                                rel=1e-12, abs=0)


_GF_IDENTITIES = ("eq1.19", "eq1.23", "eq1.24", "eq1.25", "eq1.29", "eq1.30", "eq1.31",
                  "eq2.25")


def test_gf_closed_sides_use_no_oracle(monkeypatch):
    # a closed side that quietly runs quadrature or sums its left side is no
    # independent check of the oracle
    from eulersum import linear_sums, oracle

    def refuse(*args, **kwargs):
        raise AssertionError("closed side called an oracle routine")

    for module in (oracle, catalog):
        monkeypatch.setattr(module, "quadrature", refuse)
    monkeypatch.setattr(linear_sums, "gf_lhs", refuse)
    for kind in list(linear_sums._LHS):
        monkeypatch.setitem(linear_sums._LHS, kind, refuse)
    for name in dir(linear_sums):
        if name.startswith("_lhs_"):
            monkeypatch.setattr(linear_sums, name, refuse)
    for ident_id in _GF_IDENTITIES:
        ident = catalog.get(ident_id)
        for params in ident.grid:
            assert math.isfinite(ident.closed(catalog.Variant.CORRECTED, **params))
        with pytest.raises(AssertionError, match="oracle routine"):  # the patches bite
            ident.oracle(SeriesConfig(), **ident.grid[0])


# every module of the package, so that a new one is checked too
_PACKAGE_DIR = pathlib.Path(linear_sums.__file__).parent
_MODULES = sorted(path.stem for path in _PACKAGE_DIR.glob("*.py"))
# the modules that may import the oracle: it, and the layers that drive it
_DRIVERS = {"oracle", "catalog", "cli", "__init__", "__main__"}


@pytest.mark.parametrize("module", _MODULES)
def test_closed_form_modules_import_no_numpy(module):
    # the package runs on the standard library: no module imports numpy, at
    # module level or inside a function.  In a closed form an array import
    # would also mean a brute-force series had come back into that layer
    path = _PACKAGE_DIR / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "numpy" not in imported


@pytest.mark.parametrize("module", [m for m in _MODULES if m not in _DRIVERS])
def test_closed_form_modules_import_no_oracle(module):
    # a closed form that reaches into the oracle, at module level or inside a
    # function, is no independent check of it
    path = _PACKAGE_DIR / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                imported.add(node.module.split(".")[-1])
            imported.update(alias.name for alias in node.names)
    assert "oracle" not in imported


@pytest.mark.parametrize("s", [2, 3, 4, 6])
def test_lemma13_right_side_evaluates_each_series_once(monkeypatch, s):
    # Li_j(a, x) for j = 1..s once each, plus Li_s and Li_(s+1) at x^2; the
    # same products in the same order as a sum that calls them per term
    from eulersum.specfun import param_polylog

    calls = []

    def counted(order, a, x):
        calls.append((order, a, x))
        return param_polylog(order, a, x)

    x, a = 0.62, 0.8
    want = 0.5 * s * param_polylog(s + 1, a, x * x)
    want += param_polylog(s, a, x * x) * linear_sums.polylog(1, x)
    want -= param_polylog(s, a, x) * param_polylog(1, a, x)
    want -= 0.5 * sum(param_polylog(j, a, x) * param_polylog(s + 1 - j, a, x)
                      for j in range(2, s))
    monkeypatch.setattr(linear_sums, "param_polylog", counted)
    assert gf_rhs(GfKind.LEMMA13, x=x, a=a, s=s) == want
    assert len(calls) == len(set(calls)) == s + 2


@pytest.mark.parametrize("c", [0.05, 0.5, 2.5, 15.5, 16.0, 40.0])
def test_shifted_sum_evaluates_each_harmonic_number_once(monkeypatch, c):
    # S(c) reads H_c once for its nine polylog moments at c, and once per c
    # on its way up to 16
    from eulersum import harmonic, specfun

    calls = []
    monkeypatch.setattr(harmonic, "digamma",
                        lambda x: calls.append(x) or specfun.digamma(x))
    value = linear_sums.sum_shiftedH_over_nsq.__wrapped__(c)
    assert len(calls) == len(set(calls)) == max(1, math.ceil(16.0 - c))
    assert value == linear_sums.sum_shiftedH_over_nsq(c)


@pytest.mark.parametrize("ident_id", ["eq1.27", "eq3.9", "eq4.3", "eq4.5", "eq4.7", "eq2.2",
                                      "eq2.22", "eq2.29"])
def test_closed_sides_evaluate_each_zeta_value_once(monkeypatch, ident_id):
    # a closed side reads each zeta(s, q), zbar(s, q) and psi(q) it names more
    # than once from one table or one seed (the window kernels take H_a,
    # H_a^(2) and H_a^(3) from their caller), so none is evaluated twice in a
    # call
    from eulersum import harmonic, specfun, wsums
    from eulersum.oracle import Variant

    calls = []

    def counted(name):
        fn = getattr(specfun, name)

        def wrapper(*args):
            calls.append((name, *args))
            return fn(*args)
        return wrapper

    for mod in (linear_sums, wsums, harmonic):
        for name in ("hurwitz_zeta", "alt_hurwitz_zeta", "digamma"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name))
    ident = catalog.get(ident_id)
    seen = 0
    for params in ident.grid:
        # sum_shiftedH_over_nsq (eq2.29) keeps its cache; each of its own
        # calls evaluates H_c once per shift c, but S(a) and S(a+1) pass the
        # same c, so the count is taken with the cache warm
        ident.closed(Variant.CORRECTED, **params)
        calls.clear()
        ident.closed(Variant.CORRECTED, **params)
        assert len(calls) == len(set(calls)), (params, calls)
        seen += len(calls)
    assert seen > 0
