"""High-precision referee for the three refuted printed identities, for the
closed-form kernels the plain and alternating sums share, and for the
reciprocal-binomial W shapes and their fixed-point sums.

The REFUTED verdicts otherwise rest on the package's own double-precision
oracle.  Here each witness sum is rewritten as an integral over (0, 1) of its
generating function and evaluated with mpmath's tanh-sinh quadrature at 25
digits, which controls its own accuracy even at the logarithmic endpoint
singularities.  (A bare ``mpmath.nsum`` of eq3.15's slowly decaying summand
2 H_n^2/((n+1)(n+2)) gives 5.2713 instead of 5.2899.)
"""
import math
import random
import sys
from fractions import Fraction

import pytest

from eulersum import DomainError, catalog, linear_sums, wsums
from eulersum.oracle import Variant

mpmath = pytest.importorskip("mpmath")


def _bilinear(a, b, gf):
    # sum c_n/((n+a)(n+b)) = 1/(b-a) int_0^1 (y^(a-1) - y^(b-1)) sum c_n y^n dy
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    return mpmath.quad(lambda y: (y ** (a - 1) - y ** (b - 1)) * gf(y), [0, 1]) / (b - a)


def _referee_eq2_9(a, b):
    # sum H_n y^n = -log(1-y)/(1-y)
    return _bilinear(a, b, lambda y: -mpmath.log1p(-y) / (1 - y))


def _referee_eq4_2(a, b):
    # alternating H-bar_n: sum H-bar_n y^n = log(1+y)/(1-y)
    return _bilinear(a, b, lambda y: mpmath.log1p(y) / (1 - y))


def _referee_eq3_15(b, k):
    # 1/binom(n+k+b, k) = k int_0^1 t^(n+b) (1-t)^(k-1) dt, and
    # sum H_n^2 t^n = (log^2(1-t) + Li_2(t))/(1-t)
    b = mpmath.mpf(b)
    return k * mpmath.quad(
        lambda t: t**b * (1 - t) ** (k - 2) * (mpmath.log1p(-t) ** 2 + mpmath.polylog(2, t)),
        [0, 1])


_REFEREES = {"eq2.9": _referee_eq2_9, "eq3.15": _referee_eq3_15, "eq4.2": _referee_eq4_2}


@pytest.mark.parametrize("ident_id, witness", catalog.REFUTATION_WITNESSES,
                         ids=[i for i, _ in catalog.REFUTATION_WITNESSES])
def test_refutation_witness_against_mpmath(ident_id, witness):
    entry = next(e for e in catalog.ERRATA if e.identity == ident_id)
    assert entry.witness == witness
    with mpmath.workdps(25):
        ref = float(_REFEREES[ident_id](**witness))
    ident = catalog.get(ident_id)
    corrected = ident.closed(Variant.CORRECTED, **witness)
    printed = ident.closed(Variant.AS_PRINTED, **witness)
    assert abs(corrected - ref) <= 1e-12 * max(1.0, abs(ref))
    assert abs(printed - ref) == pytest.approx(entry.expected_residual, rel=0.01)


# The shared kernels in both families.  The bilinear goes through _bilinear
# with sum H_n y^n or sum H-bar_n y^n; the reciprocal shift and the moment
# through 1/(n+a)^s = Gamma(s)^-1 int_0^1 y^(n+a-1) (-ln y)^(s-1) dy, which
# leaves sum (+-1)^(n-1) y^n/n^m = Li_m(y) or -Li_m(-y) under the integral.
_H_GF = {False: lambda y: -mpmath.log1p(-y) / (1 - y),
         True: lambda y: mpmath.log1p(y) / (1 - y)}
_LI = {False: lambda m, y: mpmath.polylog(m, y),
       True: lambda m, y: -mpmath.polylog(m, -y)}


def _shifted_power(a, s, numerator):
    # sum numerator(n)/(n+a)^s, for numerator(n) = [y^n] of numerator(y)
    a = mpmath.mpf(a)
    return mpmath.quad(lambda y: y ** (a - 1) * (-mpmath.log(y)) ** (s - 1) * numerator(y),
                       [0, 1]) / mpmath.gamma(s)


@pytest.mark.parametrize("alternating", [False, True], ids=["plain", "alternating"])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
def test_shared_kernels_against_mpmath(a, alternating):
    li = _LI[alternating]
    with mpmath.workdps(30):
        for s in (1, 2, 3):
            ref = float(_shifted_power(a, s, lambda y: li(1, y)))
            got = linear_sums.sum_recip_shift(a, s, alternating=alternating)
            assert got == pytest.approx(ref, rel=1e-13), ("sum_recip_shift", s)
        for m in (1, 2, 3):
            ref = float(_shifted_power(a, 1, lambda y: li(m, y)))
            got = linear_sums.polylog_moment(m, a, alternating=alternating)
            assert got == pytest.approx(ref, rel=1e-13), ("polylog_moment", m)
        ref = float(_bilinear(a, a + 1.5, _H_GF[alternating]))
        got = linear_sums.sum_H1_bilinear(a, a + 1.5, alternating=alternating)
        assert got == pytest.approx(ref, rel=1e-13)


def test_alternating_recip_shift_at_zero_against_mpmath():
    with mpmath.workdps(30):
        for s in (1, 2, 3):
            ref = float(_shifted_power(0.0, s, lambda y: _LI[True](1, y)))
            got = linear_sums.sum_recip_shift(0.0, s, alternating=True)
            assert got == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("alternating", [False, True], ids=["plain", "alternating"])
def test_bilinear_near_coincident_shifts_against_mpmath(alternating):
    # b - a = 2.3e-4: the difference quotient (F(b) - F(a))/(b - a) loses
    # about four digits, in the closed form and in the reference alike
    a, b = 0.5, 0.5002314063899276
    with mpmath.workdps(30):
        ref = float(_bilinear(a, b, _H_GF[alternating]))
    got = linear_sums.sum_H1_bilinear(a, b, alternating=alternating)
    assert got == pytest.approx(ref, rel=5e-12)


# The W shapes against the same partial-fraction algebra at 50 digits.  The
# shapes with p <= 1 are the finite difference Delta[g] = sum_{i<k}
# (-1)^i C(k-1, i) g(a+i) of a one-shift sum: summation by parts gives
# sum h_n/((n+c)(n+c+1)) = sum (h_n - h_(n-1))/(n+c), so g is the moment
# M_m(c) = sum (+-1)^(n-1)/(n^m (n+c)) for H_n^(m) and H-bar_n^(m), and
# G(c) = (zeta(2) + H_c^2 + H_c^(2))/c - H_c/c^2 for H_n^2.  The power shape
# is sum_r A_r [B(a, b+r)/d_r^(p-1) - sum_{j=2..p} P_j(a)/d_r^(p+1-j)],
# d_r = a-b-r, with the bilinear sum B from the potentials F and the power
# sums P_j by quadrature.  None of these shares the closed forms' prefix
# sums or fixed-point arithmetic.
def _harmonic(c):
    return mpmath.harmonic(c)


def _zbar1(c):
    return (mpmath.digamma((c + 2) / 2) - mpmath.digamma((c + 1) / 2)) / 2


def _moment(m, c, alternating):
    zeta = mpmath.altzeta if alternating else mpmath.zeta
    regular = mpmath.log(2) - _zbar1(c) if alternating else _harmonic(c)
    out = mpmath.fsum((-1) ** (l - 1) * zeta(m + 1 - l) / c**l for l in range(1, m))
    return out + (-1) ** (m - 1) * regular / c**m


def _g_square(c):
    h = _harmonic(c)
    return (2 * mpmath.zeta(2) + h**2 - mpmath.zeta(2, c + 1)) / c - h / c**2


def _delta(g, a, k):
    return mpmath.fsum((-1) ** i * mpmath.binomial(k - 1, i) * g(mpmath.mpf(a) + i)
                       for i in range(k))


def _potential(x, alternating):
    h = _harmonic(x)
    if alternating:
        z, ln2 = _zbar1(x), mpmath.log(2)
        return -ln2 / x + z / x + ln2 * h - z**2 / 2 + mpmath.zeta(2, x + 1) / 2
    return -h / x + h**2 / 2 - mpmath.zeta(2, x + 1) / 2


def _power_w(a, b, k, p, alternating):
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    fa = _potential(a, alternating)
    powers = [_shifted_power(a, j, _H_GF[alternating]) for j in range(2, p + 1)]
    out = 0
    for r in range(1, k + 1):
        d = a - b - r
        bilinear = (fa - _potential(b + r, alternating)) / d
        out += (-1) ** (r + 1) * r * mpmath.binomial(k, r) * (
            bilinear / d ** (p - 1) - mpmath.fsum(pj / d ** (p - 1 - j) for j, pj in enumerate(powers)))
    return out


_W_REFEREES = {
    "eq3.11": (dict(b=0.5, m=2), lambda b, k, m: k * _delta(lambda c: _moment(m, c, False), b + 1, k - 1)),
    "eq3.13": (dict(a=2.345678, m=3), lambda a, k, m: _delta(lambda c: _moment(m, c, False), a, k)),
    "eq3.15": (dict(b=1.25), lambda b, k: k * _delta(_g_square, b + 1, k - 1)),
    "eq3.16": (dict(a=0.75), lambda a, k: _delta(_g_square, a, k)),
    # G(c) tends to 3 zeta(3) as c -> 0
    "w111": ({}, lambda k: 3 * mpmath.zeta(3) + mpmath.fsum(
        (-1) ** i * mpmath.binomial(k - 1, i) * _g_square(mpmath.mpf(i)) for i in range(1, k))),
    "eq4.12": (dict(a=2, m=2), lambda a, k, m: k * _delta(lambda c: _moment(m, c, True), a + 1, k - 1)),
    "eq4.13": (dict(a=3, m=3), lambda a, k, m: _delta(lambda c: _moment(m, c, True), a, k)),
    "eq3.9": (dict(a=1.0, b=0.5, p=1), lambda a, b, k, p: _power_w(a, b, k, p, False)),
    "eq4.5": (dict(a=0.5, b=1.0, p=2), lambda a, b, k, p: _power_w(a, b, k, p, True)),
    # a - b = 1.98, 0.02 from the resonance r = 2: past k = 2 the terms
    # outgrow the sum beyond what double precision can cancel
    "eq3.9 near resonance": (dict(a=3.98, b=2.0, p=1), lambda a, b, k, p: _power_w(a, b, k, p, False)),
}
_W_GUARDED = {("eq3.9 near resonance", k) for k in (10, 30, 45, 60)}


@pytest.mark.parametrize("k", [2, 10, 30, 45, 60])
@pytest.mark.parametrize("row", list(_W_REFEREES))
def test_w_shapes_against_mpmath(row, k):
    params, referee = _W_REFEREES[row]
    ident = catalog.get(row.split()[0])
    params = dict(params, k=k)
    if (row, k) in _W_GUARDED:
        with pytest.raises(DomainError, match="cancels"):
            ident.closed(Variant.CORRECTED, **params)
        return
    with mpmath.workdps(50):
        ref = float(referee(**params))
    assert ident.closed(Variant.CORRECTED, **params) == pytest.approx(ref, rel=1e-10)


# The fixed-point sums of the W shapes against exact rationals: a float shift
# is a dyadic rational, so every sum but those with zbar(1, x) is a Fraction,
# and zbar(1, x) is taken to 1000 bits.  Each sum must be the Fraction's
# correctly rounded double; one below 2^-60 of a shape's largest sum is
# resolved only to 2^-120 of that.
def _zbar_fraction(x):
    with mpmath.workdps(320):
        return Fraction(int(mpmath.floor(_zbar1(mpmath.mpf(x)) * mpmath.mpf(2) ** 1000)), 2**1000)


def _exact_difference_sums(a, k, m, alternating):
    a = Fraction(a)
    z = _zbar_fraction(float(a)) if alternating else 0
    diffs, last, h = [Fraction(0)] * m, Fraction(0), Fraction(0)
    for i in range(k):
        w, u = (-1) ** i * math.comb(k - 1, i), 1 / (a + i)
        diffs = [d + w * u ** (j + 1) for j, d in enumerate(diffs)]
        if alternating:
            last += abs(w) * u**m * (z - h)
            h += (-1) ** i / (a + i + 1)
        else:
            last += w * h * u**m
            h += 1 / (a + i + 1)
    return diffs + [last]


def _square_sums(a, k):
    a = Fraction(a)
    d1 = d2 = lin = quad = h = h2 = Fraction(0)
    for i in range(k):
        w, u = (-1) ** i * math.comb(k - 1, i), 1 / (a + i)
        d1, d2 = d1 + w * u, d2 + w * u * u
        if i:
            lin += w * u * (h + u)
            quad += w * u * ((h + u) * h + h2 + u * u)
            h, h2 = h + u, h2 + u * u
    return [d1, d2, lin, quad]


def _power_sums(a, b, k, p, alternating):
    a, b = Fraction(a), Fraction(b)
    z = _zbar_fraction(float(b)) if alternating else 0
    t, s1, s2, h, h2, rho = [Fraction(0)] * p, 0, 0, Fraction(0), Fraction(0), Fraction(0)
    for r in range(1, k + 1):
        w, y = (-1) ** (r + 1) * r * math.comb(k, r), 1 / (a - b - r)
        t = [tq + w * y ** (q + 1) for q, tq in enumerate(t)]
        s1 += w * y**p * h
        quad = rho * rho + h2 - 2 * (-1) ** r * z * rho if alternating else h * h + h2
        s2 += w * y**p * quad
        v = 1 / (b + r)
        h, h2, rho = h + v, h2 + v * v, v - rho
    return t + [s1, s2]


def _assert_rounded(got, exact):
    top = max(abs(x) for x in exact)
    for g, x in zip(got, exact):
        if abs(x) > top / 2**60:
            assert g == float(x)
        else:
            assert abs(Fraction(g) - x) <= top / 2**119


def test_fixed_point_sums_are_the_rounded_fractions():
    rng = random.Random(20261019)
    shifts = [0.05, 0.5, 1.0, 2.345678, 10 / 3, 64.0, 1000.1]
    for _ in range(12):
        k, a = rng.choice([1, 2, 3, 7, 12]), rng.choice(shifts + [rng.uniform(0.01, 20)])
        m = rng.choice([1, 2, 4])
        for alternating in (False, True):
            _assert_rounded(wsums._difference_sums(a, k, m, alternating),
                            _exact_difference_sums(a, k, m, alternating))
        _assert_rounded(wsums._w_111_sums(a, k), _square_sums(a, k))
        b, p = rng.choice(shifts + [rng.uniform(0.01, 20)]), rng.choice([1, 2, 3])
        if abs(a - b - round(a - b)) > 1e-6:
            for alternating in (False, True):
                _assert_rounded(wsums._power_sums(a, b, k, p, alternating),
                                _power_sums(a, b, k, p, alternating))


@pytest.mark.parametrize("x", [0.0, 1.0, 7.0, 63.0, 64.0, 0.7, 17.5, 1e300])
def test_fixed_point_zbar_against_mpmath(x):
    # integer shifts below 64 take ln 2 - H-bar_x from a 384-bit ln 2 while
    # it holds the bits; the rest, and larger scales, the Euler series
    for s in (64, 150, 360, 400, 1000):
        with mpmath.workdps(400):
            ref = _zbar1(mpmath.mpf(x)) * mpmath.mpf(2) ** s
        assert abs(wsums._zbar_fixed(x, s) - ref) < 2, s


# Li_s(a, x) = sum_{n>=1} x^n/(n+a)^s against its terms summed in fixed point
# at 2^-200: a float x or a is a dyadic rational, so the only errors are the
# truncations of each product (below 2^-180 over 2^16 steps) and the rest
# past |x|^n <= 2^-220.  mpmath's Lerch phi at 40 digits checks the
# reference itself at three points.
_LERCH_BITS = 200


def _lerch_fixed(x, a, s_max):
    one = 1 << _LERCH_BITS
    big_x, big_a = int(Fraction(x) * one), int(Fraction(a) * one)
    acc = [0] * (s_max + 1)
    xn = one
    for n in range(1, math.ceil(-220 * math.log(2) / math.log(abs(x))) + 1):
        xn = xn * big_x >> _LERCH_BITS
        inv = (one << _LERCH_BITS) // (n * one + big_a)
        t = xn
        for s in range(1, s_max + 1):
            t = t * inv >> _LERCH_BITS
            acc[s] += t
    return [Fraction(v, one) for v in acc]


def test_lerch_reference_against_mpmath():
    for s, a, x in ((5, 60.0, 0.99), (1, -0.95, -0.99), (8, 0.05, 0.3)):
        with mpmath.workdps(40):
            want = x * mpmath.lerchphi(x, s, mpmath.mpf(a) + 1)
            ref = _lerch_fixed(x, a, s)[s]
            got = mpmath.mpf(ref.numerator) / ref.denominator
            assert abs(got - want) <= abs(want) * mpmath.mpf(10) ** -35


@pytest.mark.parametrize("a", [-0.95, -0.5, 0.0, 0.05, 0.5, 2.7, 5.0, 60.0, -2.5])
def test_param_polylog_against_fixed_point(a):
    # a > -1: the term count fixed from the rest bound, summed with fsum,
    # within 16 eps of the value.  a = -2.5 runs the loop kept for shifts
    # below -1; there the terms at n = 2 and 3 nearly cancel (about 80 eps
    # of the value at x = 0.99, s = 3), so it is held to 16 eps of sum |t_n|
    from eulersum.specfun import param_polylog

    eps = sys.float_info.epsilon
    for ax in (0.01, 0.3, 0.5, 0.75, 0.9, 0.95, 0.99):
        for x in (ax, -ax):
            exact = _lerch_fixed(x, a, 8)
            for s in range(1, 9):
                scale = abs(exact[s]) if a > -1.0 else math.fsum(
                    ax**n / abs(n + a) ** s for n in range(1, 5000))
                got = param_polylog(s, a, x)
                assert abs(Fraction(got) - exact[s]) <= 16 * eps * scale, (s, x)
