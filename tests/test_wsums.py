"""Reciprocal-binomial machinery: partial-fraction exactness, resonance
guards, classical regressions, and oracle agreement for every W shape."""
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulersum import (
    DomainError,
    classical_w110,
    classical_w111,
    riemann_zeta,
    w_1_p,
    w_11_0,
    w_111,
    w_alt_m_0,
    w_alt_m_1,
    w_m_0,
    w_m_1,
)
from eulersum import catalog
from eulersum.oracle import (
    IdentityCase,
    SeriesConfig,
    Status,
    Summand,
    Variant,
    truncated_series,
    verify_identity,
)
from eulersum.wsums import precision_warning

Z2 = riemann_zeta(2)
Z3 = riemann_zeta(3)


def _oracle(summand, n=10**6, tol=1e-9):
    cfg = SeriesConfig(max_terms=n, target_tol=tol)
    return truncated_series(summand, cfg).value


def pf_coeffs(k):
    # simple-pole weights A_r = (-1)^(r+1) r C(k, r), r = 1..k, with
    # 1/binom(n+k+a, k) = sum_r A_r/(n+a+r)
    return tuple(float((-1) ** (r + 1) * r * math.comb(k, r)) for r in range(1, k + 1))


def gen_binomial(x, k):
    # the generalized binomial Gamma(x+1)/(Gamma(k+1) Gamma(x-k+1)), for
    # x - k > -1 and k >= 0
    return math.exp(math.lgamma(x + 1.0) - math.lgamma(k + 1.0) - math.lgamma(x - k + 1.0))


def _window_weights(k):
    # w_r with 1/binom(n+k+a, k) = sum_{r<k} w_r/((n+a+1)(n+a+r+1)), k >= 2
    return [float(k * (-1) ** (r + 1) * r * math.comb(k - 1, r)) for r in range(1, k)]


def _exact_recon(k, a, n, window=False):
    # the alternating +-2^k weight cancellation is exact algebra; evaluate it
    # in rationals (floats are exact rationals) so the check certifies the
    # coefficients, not summation roundoff
    from fractions import Fraction

    af = Fraction(a)
    if window:
        recon = sum(
            Fraction(int(c)) / ((n + af + 1) * (n + r + 1 + af))
            for r, c in zip(range(1, k), _window_weights(k))
        )
    else:
        recon = sum(
            Fraction(int(c)) / (n + af + r)
            for r, c in zip(range(1, k + 1), pf_coeffs(k))
        )
    binom = Fraction(1)
    for i in range(1, k + 1):
        binom = binom * (n + af + i)
    binom = binom / math.factorial(k)
    return recon * binom


@given(
    k=st.integers(min_value=1, max_value=20),
    a=st.floats(min_value=0.001, max_value=5.0, allow_nan=False),
    n=st.sampled_from([1, 7, 123]),
)
@settings(max_examples=80, deadline=None)
def test_pf_reconstruction(k, a, n):
    # sum_r A_r/(n+a+r) times binom(n+k+a, k) must reconstruct 1
    assert abs(float(_exact_recon(k, a, n)) - 1.0) <= 1e-11


@given(
    k=st.integers(min_value=2, max_value=20),
    a=st.floats(min_value=0.001, max_value=5.0, allow_nan=False),
    n=st.sampled_from([1, 7, 123]),
)
@settings(max_examples=80, deadline=None)
def test_pf_window_reconstruction(k, a, n):
    assert abs(float(_exact_recon(k, a, n, window=True)) - 1.0) <= 1e-11


def test_pf_reconstruction_stays_stable_to_k30():
    for k in (25, 30):
        for n in (1, 9, 123):
            assert abs(float(_exact_recon(k, 0.37, n)) - 1.0) <= 1e-9


def test_pf_float_reconstruction_small_k():
    # plain float evaluation only holds full precision while the sum is not
    # many orders below the term magnitudes (small n relative to k)
    for k in (1, 2, 3, 5, 8):
        for n in (1, 4, 7):
            if k == 8 and n > 1:
                continue
            a = 0.41
            recon = sum(c / (n + a + r) for r, c in zip(range(1, k + 1), pf_coeffs(k)))
            assert recon * gen_binomial(n + k + a, float(k)) == pytest.approx(1.0, rel=1e-11)


def test_precision_warning_threshold():
    assert precision_warning(20) is None
    assert "k=25" in precision_warning(25)


def test_resonance_lattice():
    # resonance exactly when a - b is an integer in 1..k
    b, k = 0.25, 3
    for delta in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0):
        a = b + delta
        resonant = delta in (1.0, 2.0, 3.0)
        if resonant:
            with pytest.raises(DomainError):
                w_1_p(a, b, k, 1)
        else:
            w_1_p(a, b, k, 1)  # evaluates fine


def test_classical_values():
    assert classical_w110(2) == pytest.approx(2.0 * Z2 + 2.0, rel=1e-13)
    assert classical_w110(3) == pytest.approx(1.5 * Z2 - 9.0 / 8.0, rel=1e-13)
    assert classical_w111(1) == pytest.approx(3.0 * Z3, rel=1e-13)
    with pytest.raises(DomainError):
        classical_w110(1)


def test_classical_against_oracle():
    for k in (1, 2, 3):
        want = _oracle(Summand((1, 1), ((0, 1),), binom=(k, 0.0)))
        assert classical_w111(k) == pytest.approx(want, rel=1e-8)
    for k in (2, 3, 4):
        want = _oracle(Summand((1, 1), binom=(k, 0.0)))
        assert classical_w110(k) == pytest.approx(want, rel=1e-8)


def test_w_11_0_matches_classical():
    for k in range(2, 7):
        assert w_11_0(0.0, k) == pytest.approx(classical_w110(k), rel=1e-10)


def test_w_11_0_printed_variant():
    assert w_11_0(0.0, 2) == pytest.approx(2.0 * Z2 + 2.0, rel=1e-12)
    assert w_11_0(0.0, 2, as_printed=True) == pytest.approx(2.0 * Z2 + 4.0, rel=1e-12)


def test_w_1_p_against_oracle():
    for (a, b) in ((1.0, 0.5), (0.5, 1.0), (2.0, 0.25)):
        for (k, p) in ((2, 1), (3, 2)):
            want = _oracle(Summand((1,), ((a, p),), binom=(k, b)))
            assert w_1_p(a, b, k, p) == pytest.approx(want, rel=1e-8)


def test_w_m_0_against_oracle():
    for (b, k, m) in ((0.0, 2, 1), (0.5, 3, 2), (1.0, 2, 3)):
        want = _oracle(Summand((m,), binom=(k, b)))
        assert w_m_0(b, k, m) == pytest.approx(want, rel=1e-8)


def test_w_m_1_values_and_oracle():
    assert w_m_1(1.0, 1, 1) == pytest.approx(1.0, rel=1e-12)
    for (a, k, m) in ((1.0, 2, 1), (0.5, 2, 2)):
        want = _oracle(Summand((m,), ((a, 1),), binom=(k, a)))
        assert w_m_1(a, k, m) == pytest.approx(want, rel=1e-8)


def test_w_111_values_and_oracle():
    assert w_111(1.0, 1) == pytest.approx(Z2 + 1.0, rel=1e-12)
    for (a, k) in ((1.0, 2), (2.5, 3)):
        want = _oracle(Summand((1, 1), ((a, 1),), binom=(k, a)))
        assert w_111(a, k) == pytest.approx(want, rel=1e-8)


def test_w_alt_shapes_against_oracle():
    for (a, b, k, p) in ((1.0, 0.5, 2, 1), (0.5, 1.0, 2, 2)):
        want = _oracle(Summand((1,), ((a, p),), binom=(k, b), alternating=True))
        assert w_1_p(a, b, k, p, alternating=True) == pytest.approx(want, rel=1e-8)
    for (a, k, m) in ((0, 2, 1), (1, 3, 2)):
        want = _oracle(Summand((m,), binom=(k, float(a)), alternating=True))
        assert w_alt_m_0(a, k, m) == pytest.approx(want, rel=1e-8)
    for (a, k, m) in ((1, 1, 1), (1, 2, 2), (2, 2, 1)):
        want = _oracle(Summand((m,), ((a, 1),), binom=(k, float(a)), alternating=True))
        assert w_alt_m_1(a, k, m) == pytest.approx(want, rel=1e-8)


def test_alt_domain_guards():
    with pytest.raises(DomainError):
        w_alt_m_0(0.5, 2, 1)
    with pytest.raises(DomainError):
        w_alt_m_1(0, 2, 1)
    with pytest.raises(DomainError):
        w_1_p(2.5, 0.5, 2, 1, alternating=True)  # resonance a = b + 2


def test_closed_form_k_cap():
    # every W shape takes k <= 60; the power shape's old cap of 30 is gone
    assert math.isfinite(w_1_p(1.0, 0.5, 60, 1))
    with pytest.raises(DomainError):
        w_m_1(0.5, 61, 1)
    with pytest.raises(DomainError):
        w_1_p(1.0, 0.5, 61, 1)
    with pytest.raises(DomainError):
        classical_w111(61)


def test_exact_shapes_integer_budget():
    # a = 1e300 has a 997-bit numerator: L = prod (a+i) has about 60 000 bits
    # at k = 60, so order 1 fits the budget and order 2 does not.  A tiny L
    # with a large order fits the size budget but not the (m+1)^2 bits(L)
    # cost of the powers L^j: those ran 1.6-2.6 s before that budget.
    assert math.isfinite(w_m_1(1e300, 60, 1))
    for fn, args in ((w_m_1, (1e300, 60, 2)), (w_111, (1e300, 60)),
                     (w_alt_m_1, (1e300, 60, 2)), (w_m_1, (1e300, 7, 1000)),
                     (w_m_1, (1.0, 2, 40000)), (w_m_0, (0.0, 3, 40000)),
                     (w_alt_m_1, (3, 10, 4000))):
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            with pytest.raises(DomainError, match="budget"):
                fn(*args)
            seconds.append(time.perf_counter() - t0)
        assert min(seconds) < 0.01, (fn.__name__, args)


# The exact shapes, as (catalog id, closed form, shift name, shifts, orders).
_EXACT_SHAPES = (
    ("eq3.11", w_m_0, "b", (0.5, 1.0, 2.5), (1, 2, 3)),
    ("eq3.13", w_m_1, "a", (0.5, 1.0, 2.5), (1, 2, 3)),
    ("eq3.15", w_11_0, "b", (0.5, 1.0, 2.5), ()),
    ("eq3.16", w_111, "a", (0.5, 1.0, 2.5), ()),
    ("eq4.12", w_alt_m_0, "a", (0, 1, 2), (1, 2, 3)),
    ("eq4.13", w_alt_m_1, "a", (1, 2, 3), (1, 2, 3)),
)


@pytest.mark.parametrize("k", (20, 30, 45, 60))
def test_exact_shapes_against_catalog_oracle(k):
    # at k = 30 the float partial-fraction sums missed these oracles by up to 30%
    cfg = SeriesConfig(target_tol=1e-14)
    for ident_id, fn, shift, shifts, orders in _EXACT_SHAPES:
        ident = catalog.get(ident_id)
        for s in shifts:
            for extra in ({"m": m} for m in orders) if orders else ({},):
                params = {shift: s, "k": k, **extra}
                want = ident.oracle(cfg, **params).value
                assert fn(**params) == pytest.approx(want, rel=1e-10), params
    want = catalog.get("w111").oracle(cfg, k=k).value
    assert classical_w111(k) == pytest.approx(want, rel=1e-10)


def _old_pf_sum(window, k, *, depth_shift=0):
    # the float partial-fraction sum the W shapes used before: the weights
    # times window sums, with its own rounding, 64 eps sum |A_r S_r|
    if depth_shift:
        pairs = zip(range(1, k), _window_weights(k))
    else:
        pairs = zip(range(1, k + 1), pf_coeffs(k))
    terms = [c * window(r) for r, c in pairs]
    return math.fsum(terms), 64.0 * np.finfo(float).eps * sum(abs(t) for t in terms)


@pytest.mark.parametrize("k", range(1, 13))
def test_exact_shapes_match_old_partial_fractions(k):
    from eulersum import alt_sum_Hm_window, sum_H1sq_window, sum_Hm_window

    cases = []
    for a in (0.5, 1.0, 2.5):
        for m in (1, 2, 3):
            cases.append((w_m_1(a, k, m), _old_pf_sum(lambda r: sum_Hm_window(a, r, m), k)))
            if k >= 2:
                cases.append((w_m_0(a, k, m), _old_pf_sum(
                    lambda r: sum_Hm_window(a + 1.0, r, m), k, depth_shift=1)))
        cases.append((w_111(a, k), _old_pf_sum(lambda r: sum_H1sq_window(a, r), k)))
    for a in (1, 2, 3):
        for m in (1, 2, 3):
            cases.append((w_alt_m_1(a, k, m),
                          _old_pf_sum(lambda r: alt_sum_Hm_window(a, r, m), k)))
            if k >= 2:
                cases.append((w_alt_m_0(a - 1, k, m), _old_pf_sum(
                    lambda r: alt_sum_Hm_window(a, r, m), k, depth_shift=1)))
    for got, (old, old_rounding) in cases:
        assert abs(got - old) <= 1e-11 * abs(old) + old_rounding


def _old_w_11_0(b, k, as_printed):
    # the O(k^3) form w_11_0 had before the exact finite differences
    from eulersum import param_harmonic, shifted_harmonic

    h_factor = shifted_harmonic(b) if as_printed else shifted_harmonic(b + 1.0)
    out = 0.0
    for r in range(1, k):
        c = float((-1) ** (r + 1) * math.comb(k - 1, r))
        br = Z2 * param_harmonic(r, 1, b) - h_factor * param_harmonic(r, 2, b)
        br -= sum(param_harmonic(i, 1, b + 1.0) / (i + b + 1.0) ** 2 for i in range(1, r))
        br += sum((shifted_harmonic(b + j) ** 2 + shifted_harmonic(b + j, 2)) / (b + j)
                  for j in range(1, r + 1))
        out += c * br
    return k * out


def test_w_11_0_printed_variant_unchanged():
    for b in (0.0, 0.5, 1.0, 2.5):
        for k in (2, 3, 4, 5):
            old = _old_w_11_0(b, k, as_printed=True)
            assert w_11_0(b, k, as_printed=True) == pytest.approx(old, rel=1e-12)
            # printed - corrected = k/(b+1) sum_{i<k} (-1)^(i-1) C(k-2, i-1)/(b+i)^2
            diff = k / (b + 1.0) * sum((-1) ** (i - 1) * math.comb(k - 2, i - 1) / (b + i) ** 2
                                       for i in range(1, k))
            assert w_11_0(b, k, as_printed=True) - w_11_0(b, k) == pytest.approx(diff, rel=1e-12)


def test_exact_difference_past_double_range_is_a_domain_error():
    # at a < 1 the order-m differences grow like a^-m: at a = 1/2 and m = 1100
    # Delta[(a+i)^-m] / L^m no longer fits a double
    with pytest.raises(DomainError, match="outside double-precision range"):
        w_m_1(0.5, 2, 1100)
    with pytest.raises(DomainError, match="outside double-precision range"):
        w_m_0(-0.5, 3, 1100)


@pytest.mark.parametrize("args, kwargs, raw", [
    ((1e-300, 1.0, 1, 3), {}, "ZeroDivisionError"),
    ((1e300, 0.5, 20, 3), {"alternating": True}, "OverflowError"),
])
def test_power_sum_past_double_range_is_a_domain_error(args, kwargs, raw):
    # w_1_p's power sums reach sum_recip_shift, whose a^(s+1-j) underflows to
    # 0 at a = 1e-300 and overflows at a = 1e300; a direct call raised the raw
    # error, which only the catalog's guard turned into a DomainError
    with pytest.raises(DomainError, match=f"outside double-precision range \\({raw}"):
        w_1_p(*args, **kwargs)


def test_w_m_1_cancellation_past_double_precision_is_a_domain_error():
    # at a = 1/2 the float sum of the exact differences has terms of about
    # 2^m; at m = 40 they reach 2e12 against W = 0.027, and m = 1000 printed
    # 5.9e285 against the oracle's 0.0270
    with pytest.raises(DomainError, match="cancels"):
        w_m_1(0.5, 10, 40)
    with pytest.raises(DomainError, match="cancels"):
        w_m_0(-0.5, 11, 40)
    with pytest.raises(DomainError):
        w_m_1(0.5, 10, 1000)
    # the catalog grids sit far inside the limit (eps sum|terms| / W <= 1.4e-13)
    for ident_id in ("eq3.11", "eq3.13"):
        ident = catalog.get(ident_id)
        for params in ident.grid:
            assert math.isfinite(ident.closed(catalog.Variant.CORRECTED, **params))


# Every public W function, valid arguments, and its integer parameters.
_INTEGER_PARAMETERS = (
    (w_1_p, {"a": 1.0, "b": 0.5, "k": 2, "p": 1}, ("k", "p")),
    (w_m_0, {"b": 0.5, "k": 2, "m": 1}, ("k", "m")),
    (w_m_1, {"a": 1.0, "k": 2, "m": 1}, ("k", "m")),
    (w_11_0, {"b": 0.5, "k": 2}, ("k",)),
    (w_111, {"a": 1.0, "k": 2}, ("k",)),
    (w_alt_m_0, {"a": 1, "k": 2, "m": 1}, ("a", "k", "m")),
    (w_alt_m_1, {"a": 1, "k": 2, "m": 1}, ("a", "k", "m")),
    (classical_w110, {"k": 2}, ("k",)),
    (classical_w111, {"k": 2}, ("k",)),
)


@pytest.mark.parametrize("bad", [math.inf, math.nan, 2.5], ids=["inf", "nan", "2.5"])
@pytest.mark.parametrize("fn, args, names", _INTEGER_PARAMETERS,
                         ids=[fn.__name__ for fn, _, _ in _INTEGER_PARAMETERS])
def test_integer_parameters_reject_inf_nan_and_fractions(fn, args, names, bad):
    # int() on inf or nan raised a raw OverflowError or ValueError
    assert math.isfinite(fn(**args))
    for name in names:
        with pytest.raises(DomainError):
            fn(**dict(args, **{name: bad}))


def test_power_shape_at_k30_is_confirmed():
    # the float partial-fraction loop gave 0.0041300649 here against the
    # oracle's 0.0041297201, and verify read REFUTED
    params = {"a": 1.0, "b": 0.5, "k": 30, "p": 1}
    assert w_1_p(**params) == pytest.approx(4.1297201423e-3, rel=1e-10)
    rec = verify_identity(IdentityCase("eq3.9", params, catalog.get("eq3.9").tol))
    assert rec.status is Status.CONFIRMED


@pytest.mark.parametrize("ident_id, params", [
    ("eq3.9", {"a": 3.98, "b": 2.0, "k": 4, "p": 5}),
    ("eq4.5", {"a": 3.980741156415893, "b": 2.0, "k": 4, "p": 5}),
])
def test_near_resonance_is_a_domain_error_not_a_refutation(ident_id, params):
    # a - b is 0.02 from the resonance r = 2: the power-5 terms reach 1e10
    # against a sum of 1e-5.  The float loop printed values 9 % and 18 % off
    # and verify refuted the corrected identities.
    ident = catalog.get(ident_id)
    with pytest.raises(DomainError, match="cancels"):
        ident.closed(Variant.CORRECTED, **params)
    rec = verify_identity(IdentityCase(ident_id, params, ident.tol))
    assert rec.status is Status.INCONCLUSIVE and "cancels" in rec.reason


def test_fixed_point_grows_its_scale_until_each_sum_is_resolved():
    from fractions import Fraction

    from eulersum.wsums import _fixed_point

    # 3^-100 is about 2^-158: at S = 64 its integer is 0, so S must grow
    # until the sum is known to 2^-60 of itself and rounds one way
    scales = []

    def run(s):
        scales.append(s)
        return [(1 << s) // 3**100, -(1 << s) // (7 * 3**100)]

    # errors below 1 unit, and a guess of 2^+40 for the sums: S starts at 64
    assert _fixed_point(run, [1, 1], 1, 40.0, str) == [float(Fraction(1, 3**100)),
                                                       float(Fraction(-1, 7 * 3**100))]
    assert scales[0] == 64 and scales[-1] > 158 + 60
    # a sum that is a tie between two doubles never settles its rounding:
    # after two tries the nearest double of its integer stands
    tie = (1 << 53) + 1

    def run_tie(s):
        return [tie << (s - 53)]

    assert _fixed_point(run_tie, [1], 1, 0.0, str) == [1.0]
    with pytest.raises(DomainError, match="budget"):
        _fixed_point(run, [1, 1], 2000, 40.0, str)
