"""Alternating-numerator sums: frozen values, agreement with mpmath's
alternating-series sums and the truncated-series oracle, the integer-shift
displays, and the printed-variant refutations."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulersum import (
    DomainError,
    LN2,
    alt_harmonic_num,
    alt_sum_H1_power,
    alt_sum_Hm_window,
    alt_hurwitz_zeta,
    alt_zeta,
    param_harmonic,
    polylog_moment,
    riemann_zeta,
    sum_H1_bilinear,
    sum_recip_shift,
)
from eulersum.oracle import SeriesConfig, Summand, truncated_series

Z3 = riemann_zeta(3)


def _alt_oracle(abs_term):
    # sum_{n>=1} (-1)^(n-1) abs_term(n), abs_term taking an mpf n, at 30 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return float(mpmath.nsum(lambda n: (-1) ** (n - 1) * abs_term(n), [1, mpmath.inf],
                                 method="alternating"))


def _trunc_oracle(orders, den, tol=1e-9):
    # the alternating numerator prod H-bar_n^(m) over orders, over den's factors
    cfg = SeriesConfig(target_tol=tol)
    return truncated_series(Summand(orders, den, alternating=True), cfg).value


class TestAltPolylogMoment:
    def test_values(self):
        assert polylog_moment(1, 1.0, alternating=True) == pytest.approx(
            2.0 * LN2 - 1.0, rel=1e-13)
        assert polylog_moment(2, 1.0, alternating=True) == pytest.approx(
            alt_zeta(2) - 2.0 * LN2 + 1.0, rel=1e-12)

    def test_against_accelerated_oracle(self):
        for a in (0.5, 1.0, 2.0, 3.5):
            for m in (1, 2, 3, 4):
                want = _alt_oracle(lambda n, a=a, m=m: 1 / (n**m * (n + a)))
                assert polylog_moment(m, a, alternating=True) == pytest.approx(want, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            polylog_moment(2, 0.0, alternating=True)


class TestAltRecipShift:
    def test_reduces_to_alt_zeta_at_zero(self):
        for s in (1, 2, 3):
            assert sum_recip_shift(0.0, s, alternating=True) == pytest.approx(
                alt_zeta(s + 1), rel=1e-13)

    def test_against_accelerated_oracle(self):
        for a in (0.5, 1.0, 2.5):
            for s in (1, 2, 3):
                want = _alt_oracle(lambda n, a=a, s=s: 1 / (n * (n + a) ** s))
                assert sum_recip_shift(a, s, alternating=True) == pytest.approx(want, abs=1e-10)


class TestAltPowerSum:
    def test_zero_shift_square(self):
        want = math.pi**2 * LN2 / 4.0 - Z3 / 4.0
        assert alt_sum_H1_power(0.0, 2) == pytest.approx(want, abs=1e-10)

    def test_against_oracle(self):
        for a in (0.0, 1.0, 0.5):
            for s in (2, 3):
                want = _trunc_oracle((1,), ((a, s),))
                assert alt_sum_H1_power(a, s) == pytest.approx(want, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            alt_sum_H1_power(-0.5, 2)
        with pytest.raises(DomainError):
            alt_sum_H1_power(1.0, 1)


class TestAltBilinear:
    def test_against_oracle(self):
        for (a, b) in ((1.0, 2.0), (0.5, 2.5), (0.5, 1.0)):
            want = _trunc_oracle((1,), ((a, 1), (b, 1)))
            assert sum_H1_bilinear(a, b, alternating=True) == pytest.approx(want, abs=1e-9)

    def test_printed_variant_refuted(self):
        truth = _trunc_oracle((1,), ((1.0, 1), (2.0, 1)))
        printed = sum_H1_bilinear(1.0, 2.0, alternating=True, as_printed=True)
        assert abs(printed - truth) > 1e-3
        assert sum_H1_bilinear(1.0, 2.0, alternating=True) == pytest.approx(truth, abs=1e-9)

    def test_unit_case_collapses(self):
        # window at (1, 2) telescopes to the alternating moment value
        assert sum_H1_bilinear(1.0, 2.0, alternating=True) == pytest.approx(
            2.0 * LN2 - 1.0, rel=1e-12)


class TestAltWindows:
    def test_integer_restriction(self):
        with pytest.raises(DomainError):
            alt_sum_Hm_window(0.5, 1, 1)
        with pytest.raises(DomainError):
            alt_sum_Hm_window(-1.0, 1, 1)

    def test_zero_shift_unit_window(self):
        assert alt_sum_Hm_window(0.0, 1, 1) == pytest.approx(alt_zeta(2), rel=1e-12)

    def test_zero_shift_display_value(self):
        # braces at (k=2, m=2): zbar(3) + zbar(2) H_1 - ln2 (H_1^(2)+Hbar_1^(2)) + Hbar_1
        want = (0.75 * Z3 + math.pi**2 / 12.0 - 2.0 * LN2 + 1.0) / 2.0
        assert alt_sum_Hm_window(0.0, 2, 2) == pytest.approx(want, rel=1e-12)

    def test_against_oracle(self):
        for a in (0, 1, 2):
            for k in (1, 2, 3):
                for m in (1, 2, 3):
                    want = _trunc_oracle((m,), ((a, 1), (a + k, 1)))
                    assert alt_sum_Hm_window(float(a), k, m) == pytest.approx(want, abs=1e-9)

    def test_moment_route_consistency(self):
        # window value equals the mean of the alternating moments over the window
        for a in (1, 2):
            for k in (1, 2, 3):
                for m in (1, 2):
                    via_moments = sum(
                        polylog_moment(m, float(a + i), alternating=True) for i in range(k)) / k
                    assert alt_sum_Hm_window(float(a), k, m) == pytest.approx(
                        via_moments, rel=1e-11)


def _old_alt_window(a, k, m):
    # the O(k^2) nested sum that nested_harmonic_sum(k, m, a, alternating=True) replaced
    if a == 0:
        br = sum_recip_shift(a, m, alternating=True)
    else:
        br = polylog_moment(m, a, alternating=True)
    sgn = (-1.0) ** (m - 1)
    br += sgn * LN2 * param_harmonic(k - 1, m, a)
    br += sgn * alt_hurwitz_zeta(1, a) * sum((-1.0) ** (i - 1) / (i + a) ** m for i in range(1, k))
    br -= sgn * sum(
        (-1.0) ** (i - 1) / (i + a) ** m
        * sum((-1.0) ** (j - 1) / (j + a) for j in range(1, i + 1))
        for i in range(1, k)
    )
    br += sum((-1.0) ** (j - 1) * alt_zeta(m + 1 - j) * param_harmonic(k - 1, j, a)
              for j in range(1, m))
    return br / k


@pytest.mark.parametrize("k", (1, 2, 10, 101, 1024))
def test_alt_window_matches_old_quadratic_form(k):
    for a in (0, 1, 3):
        for m in (1, 2, 3):
            assert alt_sum_Hm_window(float(a), k, m) == pytest.approx(
                _old_alt_window(float(a), k, m), rel=1e-12)


@given(n=st.integers(min_value=1, max_value=10_000), s=st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_alt_harmonic_envelope(n, s):
    # |Hbar_n^(s) - zbar(s)| <= 1/(n+1)^s, the alternating remainder bound
    gap = abs(alt_harmonic_num(n, s) - alt_zeta(s))
    assert gap <= 1.0 / (n + 1.0) ** s + 1e-15
