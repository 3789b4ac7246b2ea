"""High-precision referee for the three refuted printed identities, and for
the closed-form kernels the plain and alternating sums share.

The REFUTED verdicts otherwise rest on the package's own double-precision
oracle.  Here each witness sum is rewritten as an integral over (0, 1) of its
generating function and evaluated with mpmath's tanh-sinh quadrature at 25
digits, which controls its own accuracy even at the logarithmic endpoint
singularities.  (A bare ``mpmath.nsum`` of eq3.15's slowly decaying summand
2 H_n^2/((n+1)(n+2)) gives 5.2713 instead of 5.2899.)
"""
import pytest

from eulersum import catalog, linear_sums
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
