"""Harmonic-number machinery: finite sums, shifted extensions, generalized
binomials, exact Stirling rows, and the log-power moment recurrence."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulersum import (
    DomainError,
    PoleError,
    alt_harmonic_num,
    harmonic_num,
    param_harmonic,
    riemann_zeta,
    shifted_harmonic,
    stirling1,
    y_moment,
)
from eulersum.harmonic import nested_harmonic_sum
from eulersum.oracle import Integrand, quadrature


def test_harmonic_num_values():
    assert harmonic_num(0, 1) == 0.0
    assert harmonic_num(4, 1) == pytest.approx(25.0 / 12.0, rel=1e-15)
    assert harmonic_num(3, 2) == pytest.approx(49.0 / 36.0, rel=1e-15)


def test_alt_harmonic_num_values():
    assert alt_harmonic_num(1, 1) == 1.0
    assert alt_harmonic_num(2, 1) == pytest.approx(0.5, rel=1e-15)
    assert alt_harmonic_num(4, 2) == pytest.approx(1.0 - 0.25 + 1.0 / 9 - 1.0 / 16, rel=1e-15)


def test_param_harmonic_values():
    assert param_harmonic(3, 1, 0.0) == pytest.approx(11.0 / 6.0, rel=1e-15)
    assert param_harmonic(2, 2, 0.5) == pytest.approx(1.0 / 2.25 + 1.0 / 6.25, rel=1e-15)
    assert param_harmonic(0, 1, 7.0) == 0.0
    with pytest.raises(PoleError):
        param_harmonic(3, 1, -2.0)


@given(
    n=st.integers(min_value=0, max_value=10_000),
    s=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_param_harmonic_zero_shift_reduces(n, s):
    assert param_harmonic(n, s, 0.0) == pytest.approx(harmonic_num(n, s), rel=1e-14, abs=1e-14)


def test_shifted_harmonic_integer_reduction():
    for n in (1, 3, 7, 20):
        for m in (1, 2, 3):
            assert shifted_harmonic(float(n), m) == pytest.approx(
                harmonic_num(n, m), abs=1e-13)


def test_shifted_harmonic_values():
    assert shifted_harmonic(0.5, 1) == pytest.approx(2.0 - 2.0 * math.log(2.0), rel=1e-13)
    assert shifted_harmonic(0.5, 2) == pytest.approx(4.0 - math.pi**2 / 3.0, rel=1e-12)
    with pytest.raises(DomainError):
        shifted_harmonic(-1.5, 1)


def test_shifted_harmonic_window_identity():
    # H_(n+alpha)^(m) = H_alpha^(m) + sum_{j<=n} (j+alpha)^-m for m >= 2
    rng = np.random.default_rng(29)
    for _ in range(60):
        alpha = float(rng.uniform(0.01, 5.0))
        n = int(rng.integers(1, 101))
        for m in (2, 3):
            lhs = shifted_harmonic(alpha + n, m)
            rhs = shifted_harmonic(alpha, m) + param_harmonic(n, m, alpha)
            assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 10, 101])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_nested_harmonic_sum_matches_quadratic_loops(k, m):
    # references: the O(k^2) expressions the integer-shift displays used before
    plain = sum(harmonic_num(i) / float(i) ** m for i in range(1, k))
    assert nested_harmonic_sum(k, m) == pytest.approx(plain, rel=1e-13)
    alt = sum((-1.0) ** (i - 1) * alt_harmonic_num(i) / float(i) ** m for i in range(1, k))
    assert nested_harmonic_sum(k, m, alternating=True) == pytest.approx(alt, rel=1e-13)
    for a in (0.5, 2.5):
        shifted = sum(param_harmonic(i, 1, a) / (i + a) ** m for i in range(1, k))
        assert nested_harmonic_sum(k, m, a) == pytest.approx(shifted, rel=1e-13)


def test_nested_harmonic_sum_guards():
    with pytest.raises(DomainError):
        nested_harmonic_sum(5, 0)
    with pytest.raises(PoleError):
        nested_harmonic_sum(5, 1, -2.0)


def _exact_harmonic(n, s=1):
    return sum(Fraction(1, j**s) for j in range(1, n + 1))


def test_stirling_closed_forms_exact():
    # first-kind rows against the factorial/harmonic closed forms, exactly
    for n in range(1, 21):
        h1 = _exact_harmonic(n - 1)
        h2 = _exact_harmonic(n - 1, 2)
        h3 = _exact_harmonic(n - 1, 3)
        h4 = _exact_harmonic(n - 1, 4)
        f = math.factorial(n - 1)
        assert stirling1(n, 1) == f
        if n >= 2:
            assert stirling1(n, 2) == f * h1
        if n >= 3:
            assert Fraction(stirling1(n, 3)) == Fraction(f, 2) * (h1**2 - h2)
        if n >= 4:
            assert Fraction(stirling1(n, 4)) == Fraction(f, 6) * (h1**3 - 3 * h1 * h2 + 2 * h3)
        if n >= 5:
            assert Fraction(stirling1(n, 5)) == Fraction(f, 24) * (
                h1**4 - 6 * h4 - 6 * h1**2 * h2 + 3 * h2**2 + 8 * h1 * h3)


def test_stirling_recurrence_and_bounds():
    for n in range(1, 40):
        for k in range(1, n + 1):
            left = stirling1(n - 1, k - 1)
            right = stirling1(n - 1, k) if k <= n - 1 else 0
            assert stirling1(n, k) == left + (n - 1) * right
    assert stirling1(5, 5) == 1
    assert stirling1(3, 1) == 2
    assert stirling1(4, 2) == 11
    with pytest.raises(DomainError):
        stirling1(65, 3)
    with pytest.raises(DomainError):
        stirling1(4, 5)


def _log_series_coeffs(power, n_max):
    # exact Taylor coefficients of (-ln(1-x))^power by repeated convolution
    base = [Fraction(0)] + [Fraction(1, j) for j in range(1, n_max + 1)]
    coeffs = list(base)
    for _ in range(power - 1):
        out = [Fraction(0)] * (n_max + 1)
        for i in range(1, n_max + 1):
            if coeffs[i] == 0:
                continue
            for j in range(1, n_max - i + 1):
                out[i + j] += coeffs[i] * base[j]
        coeffs = out
    return coeffs


def test_stirling_generating_coefficients_exact():
    # (m+1)! s(n, m+1)/n! must equal the exact log-power series coefficients
    n_max = 20
    for m in range(0, 5):
        coeffs = _log_series_coeffs(m + 1, n_max)
        for n in range(m + 1, n_max + 1):
            expected = Fraction(math.factorial(m + 1) * stirling1(n, m + 1),
                                math.factorial(n))
            assert coeffs[n] == expected


def test_stirling_series_partial_sum_at_quarter():
    # partial sums via Stirling coefficients reproduce the truncated power series
    x = Fraction(1, 4)
    for m in range(0, 5):
        coeffs = _log_series_coeffs(m + 1, 20)
        via_stirling = sum(
            Fraction(math.factorial(m + 1) * stirling1(n, m + 1), math.factorial(n)) * x**n
            for n in range(m + 1, 21)
        )
        direct = sum(coeffs[n] * x**n for n in range(1, 21))
        assert via_stirling == direct


def test_y_moment_values():
    assert y_moment(0, 2.7) == 1.0
    assert y_moment(1, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert y_moment(2, 1.0) == pytest.approx(2.0, rel=1e-13)
    with pytest.raises(DomainError):
        y_moment(2, 0.0)
    with pytest.raises(DomainError):
        y_moment(9, 1.0)


def test_y_moment_against_quadrature():
    for m in (1, 2, 3, 4):
        for a in (0.5, 1.0, 2.5, math.pi):
            integral = quadrature(Integrand.LOG_POW_MOMENT, {"a": a, "m": m}, tol=1e-12)
            assert y_moment(m, a) == pytest.approx(
                (-1.0) ** m * a * integral.value, abs=1e-10)
