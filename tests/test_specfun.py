"""Special-function unit tests: frozen values, high-precision references,
and the structural identities the rest of the package leans on."""
import math

import mpmath as mp
import numpy as np
import pytest

from eulersum import (
    ConvergenceError,
    DomainError,
    EULER_GAMMA,
    LN2,
    PoleError,
    alt_hurwitz_zeta,
    alt_zeta,
    digamma,
    gamma_fn,
    h_func,
    hurwitz_zeta,
    param_polylog,
    polygamma,
    polylog,
    riemann_zeta,
)
from eulersum import specfun
from eulersum.linear_sums import sum_shiftedH_over_nsq
from eulersum.specfun import as_shift

mp.mp.dps = 30


def test_gamma_values():
    assert gamma_fn(1.0) == 1.0
    assert gamma_fn(5.0) == 24.0
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_accuracy_over_range():
    rng = np.random.default_rng(7)
    for x in rng.uniform(-49.9, 49.9, size=200):
        if abs(x - round(x)) < 1e-3:
            continue
        want = float(mp.gamma(x))
        assert gamma_fn(float(x)) == pytest.approx(want, rel=1e-13)


def test_gamma_pole():
    with pytest.raises(PoleError):
        gamma_fn(0.0)
    with pytest.raises(PoleError):
        gamma_fn(-3.0)


def test_digamma_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-15)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-14)
    assert digamma(1.5) == pytest.approx(2.0 - 2.0 * LN2 - EULER_GAMMA, abs=1e-14)


def test_digamma_reference_grid():
    rng = np.random.default_rng(11)
    for x in rng.uniform(0.005, 100.0, size=300):
        assert digamma(float(x)) == pytest.approx(float(mp.digamma(x)), abs=1e-13)


def test_digamma_recurrence_property():
    # psi(x+1) - psi(x) = 1/x on 1000 random points
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.01, 50.0, size=1000)
    for x in xs:
        x = float(x)
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-12)


def test_digamma_pole():
    with pytest.raises(PoleError):
        digamma(0.0)
    with pytest.raises(PoleError):
        digamma(-7.0)


def test_polygamma_matches_reference():
    rng = np.random.default_rng(5)
    for m in range(1, 7):
        for x in rng.uniform(0.05, 100.0, size=30):
            want = float(mp.polygamma(m, float(x)))
            assert polygamma(m, float(x)) == pytest.approx(want, rel=1e-12)


def test_polygamma_values():
    assert polygamma(1, 1.0) == pytest.approx(riemann_zeta(2), rel=1e-13)
    assert polygamma(2, 1.0) == pytest.approx(-2.0 * riemann_zeta(3), rel=1e-13)
    # direct summation of zeta(2, 3)
    z23 = sum(1.0 / (n + 3.0) ** 2 for n in range(200000)) + 1.0 / 200003.0
    assert polygamma(1, 3.0) == pytest.approx(z23, abs=1e-5)
    assert polygamma(1, 3.0) == pytest.approx(riemann_zeta(2) - 1.0 - 0.25, rel=1e-13)


def test_polygamma_hurwitz_relation():
    rng = np.random.default_rng(13)
    for m in range(1, 7):
        for x in rng.uniform(0.02, 100.0, size=25):
            x = float(x)
            want = (-1.0) ** (m + 1) * math.factorial(m) * hurwitz_zeta(m + 1, x)
            assert polygamma(m, x) == pytest.approx(want, rel=1e-11)


def test_riemann_zeta_values():
    assert riemann_zeta(2) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
    assert riemann_zeta(3) == pytest.approx(1.2020569031595943, rel=1e-15)
    assert riemann_zeta(4) == pytest.approx(math.pi**4 / 90.0, rel=1e-14)
    assert riemann_zeta(26) == pytest.approx(float(mp.zeta(26)), rel=1e-14)
    with pytest.raises(DomainError):
        riemann_zeta(1)


def test_hurwitz_zeta_values_and_recurrence():
    assert hurwitz_zeta(2, 1.0) == pytest.approx(riemann_zeta(2), rel=1e-14)
    assert hurwitz_zeta(2, 2.0) == pytest.approx(riemann_zeta(2) - 1.0, rel=1e-13)
    assert hurwitz_zeta(2, 1.5) == pytest.approx(math.pi**2 / 2.0 - 4.0, rel=1e-12)
    rng = np.random.default_rng(17)
    for s in (2, 3, 5, 8, 12):
        for q in rng.uniform(0.02, 40.0, size=20):
            q = float(q)
            lhs = hurwitz_zeta(s, q) - hurwitz_zeta(s, q + 1.0)
            assert lhs == pytest.approx(q**-s, rel=1e-13)


def test_hurwitz_zeta_reference_grid():
    rng = np.random.default_rng(23)
    for s in (2, 3, 4, 6, 9, 12):
        for q in rng.uniform(0.05, 60.0, size=15):
            want = float(mp.zeta(s, float(q)))
            assert hurwitz_zeta(s, float(q)) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("s", list(range(2, 21)) + [30, 60])
def test_hurwitz_zeta_against_mpmath_across_the_shift_target(s):
    # hurwitz_zeta shifts q up to a target and then takes Euler-Maclaurin
    # corrections; the remainder is largest just above the target, where a
    # fixed target max(10, s) with 7 corrections is off by up to 2.7e-10 at
    # s = 10.  A fine grid across [target, target + 1], q below it that shift
    # in, a grid across max(10, s), and random q.  The reference is 40 digits
    # of mpmath's zeta, evaluated with 60 working digits: with 40 it loses up
    # to 13 digits at s = 30, q ~ 60
    from eulersum.specfun import _zeta_plan

    target = _zeta_plan(s)[0]
    grid = [target + i / 16 for i in range(17)] + [target - 3 + i / 4 for i in range(5)]
    grid += [max(10.0, s) + i / 8 for i in range(9)]
    grid += [float(q) for q in np.random.default_rng(s).uniform(0.01, 60.0, size=4)]
    worst = 0.0
    for q in grid:
        with mp.workdps(60):
            want = mp.zeta(s, q)
        worst = max(worst, float(abs(hurwitz_zeta(s, q) - want) / want))
    assert worst <= 8 * np.finfo(float).eps, (s, worst)


def test_hurwitz_zeta_at_two_against_mpmath():
    # s = 2 takes the same plan as every s, a shift to 10 and 9 corrections
    from eulersum.specfun import _zeta_plan

    assert _zeta_plan(2) == (10.0, 9)
    worst = 0.0
    for q in np.random.default_rng(2).uniform(0.05, 30.0, size=400):
        with mp.workdps(40):
            want = mp.zeta(2, float(q))
        worst = max(worst, float(abs(hurwitz_zeta(2, float(q)) - want) / want))
    assert worst <= 4 * np.finfo(float).eps, worst


def test_hurwitz_zeta_plan_meets_its_remainder_bound():
    # for s >= 2, at the shift target q0 and with M corrections, the relative
    # remainder 2 |B_(2M+2)|/(2M+2)! (s)_(2M+1) (s-1) q0^-(2M+2) is below 2^-55
    from eulersum.specfun import _zeta_plan

    for s in list(range(2, 21)) + [30, 60, 100, 1000]:
        q0, m = _zeta_plan(s)
        assert q0 >= max(10.0, s) and 1 <= m <= 14
        b = mp.bernoulli(2 * m + 2) / mp.factorial(2 * m + 2)
        rel = 2 * abs(b) * mp.rf(s, 2 * m + 1) * (s - 1) / mp.mpf(q0) ** (2 * m + 2)
        assert rel <= mp.mpf(2) ** -55, s


def test_hurwitz_domain():
    with pytest.raises(DomainError):
        hurwitz_zeta(1, 2.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2, 0.0)


def test_alt_zeta():
    assert alt_zeta(1) == pytest.approx(LN2, rel=1e-15)
    assert alt_zeta(2) == pytest.approx(math.pi**2 / 12.0, rel=1e-14)
    assert alt_zeta(3) == pytest.approx(0.75 * riemann_zeta(3), rel=1e-15)
    for s in range(2, 13):
        want = (1.0 - 2.0 ** (1 - s)) * riemann_zeta(s)
        assert alt_zeta(s) == pytest.approx(want, rel=1e-15)


def test_alt_hurwitz_zeta_values():
    assert alt_hurwitz_zeta(1, 0.0) == pytest.approx(LN2, rel=1e-14)
    assert alt_hurwitz_zeta(2, 0.0) == pytest.approx(math.pi**2 / 12.0, rel=1e-14)
    assert alt_hurwitz_zeta(1, 1.0) == pytest.approx(1.0 - LN2, rel=1e-13)
    with pytest.raises(DomainError):
        alt_hurwitz_zeta(1, -1.0)


def test_alt_hurwitz_zeta_reference_grid():
    for s in (1, 2, 3, 4):
        for a in (-0.5, 0.25, 1.0, 2.5, 10.0 / 3.0):
            want = float(mp.nsum(lambda n: (-1) ** (n - 1) / (n + a) ** s, [1, mp.inf]))
            assert alt_hurwitz_zeta(s, a) == pytest.approx(want, abs=1e-12)


def test_polylog_values():
    assert polylog(1, 0.5) == pytest.approx(LN2, rel=1e-15)
    assert polylog(2, 1.0) == pytest.approx(riemann_zeta(2), rel=1e-15)
    assert polylog(2, -1.0) == pytest.approx(-math.pi**2 / 12.0, rel=1e-14)
    with pytest.raises(DomainError):
        polylog(1, 1.0)
    with pytest.raises(DomainError):
        polylog(2, 1.5)


def test_polylog_matches_direct_summation():
    # both evaluation routes (series and near-one expansion) against raw sums
    for m in (1, 2, 3, 4, 6):
        for x in (-0.9, -0.76, -0.5, 0.3, 0.76, 0.9):
            direct = sum(x**n / float(n) ** m for n in range(1, 3000))
            assert polylog(m, x) == pytest.approx(direct, rel=1e-12)


def test_polylog_reference_near_one():
    for m in (2, 3, 4, 5, 6):
        for x in (0.751, 0.9, 0.99, 0.999, 0.999999):
            assert polylog(m, x) == pytest.approx(float(mp.polylog(m, x)), rel=1e-13)


def test_param_polylog_reduces_to_polylog():
    for s in (1, 2, 3):
        for x in (-0.9, -0.3, 0.3, 0.74, 0.9):
            assert param_polylog(s, 0.0, x) == pytest.approx(polylog(s, x), rel=1e-13)


def test_param_polylog_values():
    assert param_polylog(2, 0.0, 0.3) == pytest.approx(0.32612951007547614, rel=1e-12)
    assert param_polylog(1, 1.0, 0.5) == pytest.approx(2.0 * LN2 - 1.0, rel=1e-13)
    assert param_polylog(3, 0.5, 0.0) == 0.0
    # endpoint routes
    assert param_polylog(2, 0.5, 1.0) == pytest.approx(hurwitz_zeta(2, 1.5), rel=1e-14)
    assert param_polylog(1, 1.0, -1.0) == pytest.approx(-(1.0 - LN2), rel=1e-13)


def _bisected_param_polylog_terms(s, a, x):
    # the least count by bisection below the count that (N+1+a)^s >= (2+a)^s
    # gives, kept as referee for the Newton bracket of _param_polylog_terms
    r = abs(x)
    log_r = math.log(r)
    log_floor = log_r - s * math.log1p(a) - 60.0 * LN2 + math.log1p(-r)
    if x < 0.0:
        log_floor += math.log1p(-r * ((1.0 + a) / (2.0 + a)) ** s)
    cap = max(1, math.ceil((log_floor + s * math.log(2.0 + a)) / log_r) - 1)
    fits = lambda n: (n + 1) * log_r - s * math.log(n + 1 + a) <= log_floor  # noqa: E731
    if not fits(cap):
        return cap
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("steps, draws", [(specfun._PARAM_POLYLOG_NEWTON_STEPS, 20_000),
                                          (1, 2_000)], ids=["newton", "bisection-fallback"])
def test_param_polylog_terms_equal_the_bisected_least_count(monkeypatch, steps, draws):
    # seeded (s, a, x): shifts near -1, moderate and large, |x| near 0,
    # moderate and near 1, where counts pass the cap and raise; with one
    # Newton step most brackets are left to the bisection
    monkeypatch.setattr(specfun, "_PARAM_POLYLOG_NEWTON_STEPS", steps)
    rng = np.random.default_rng(20261020)
    limit = specfun._PARAM_POLYLOG_MAX_TERMS
    raised = 0
    for _ in range(draws):
        s = int(rng.integers(1, 13))
        kind = rng.random()
        if kind < 0.2:
            a = -1.0 + 10.0 ** rng.uniform(-6.0, 0.3)
        elif kind < 0.8:
            a = 10.0 ** rng.uniform(-3.0, 3.5)
        else:
            a = rng.uniform(-0.999, 5.0)
        kind = rng.random()
        sign = 1.0 if rng.random() < 0.5 else -1.0
        if kind < 0.15:
            x = sign * (1.0 - 10.0 ** rng.uniform(-7.0, -1.0))
        elif kind < 0.3:
            x = sign * 10.0 ** rng.uniform(-300.0, -1.0)
        else:
            x = rng.uniform(-0.999, 0.999)
        want = _bisected_param_polylog_terms(s, a, x)
        if want >= limit:
            raised += 1
            with pytest.raises(ConvergenceError):
                specfun._param_polylog_terms(s, a, x)
        else:
            assert specfun._param_polylog_terms(s, a, x) == want, (s, a, x)
    assert 0 < raised < draws // 10


def test_h_func():
    assert h_func(1, 0.0, 0.5) == pytest.approx(LN2, rel=1e-14)
    assert h_func(2, 0.0, 1.0) == pytest.approx(riemann_zeta(2), rel=1e-14)
    assert h_func(1, 1.0, 0.5) == pytest.approx(0.5 * (2.0 * LN2 - 1.0), rel=1e-13)
    with pytest.raises(DomainError):
        h_func(2, 0.5, -0.5)  # x < 0 with non-integer shift
    assert h_func(2, 1.0, -0.5) == pytest.approx(
        sum((-0.5) ** (n + 1) / (n + 1.0) ** 2 for n in range(1, 60)), rel=1e-12
    )


def test_shift_param_guards():
    with pytest.raises(DomainError):
        as_shift(-2.0)
    with pytest.raises(DomainError):
        as_shift(math.inf)
    assert as_shift(0.5) == 0.5


@pytest.mark.parametrize("fn, call", [
    (sum_shiftedH_over_nsq, sum_shiftedH_over_nsq),
], ids=["sum_shiftedH_over_nsq"])
def test_float_keyed_caches_are_bounded(fn, call):
    # keyed by a float shift, an unbounded cache would keep one entry per
    # distinct shift for the life of the process
    limit = fn.cache_info().maxsize
    assert limit is not None
    fn.cache_clear()
    for i in range(limit + 500):
        call(20.0 + i / 7.0)
    assert fn.cache_info().currsize <= limit
