"""High-precision referee for the three refuted printed identities.

The REFUTED verdicts otherwise rest on the package's own double-precision
oracle.  Here each witness sum is rewritten as an integral over (0, 1) of its
generating function and evaluated with mpmath's tanh-sinh quadrature at 25
digits, which controls its own accuracy even at the logarithmic endpoint
singularities.  (A bare ``mpmath.nsum`` of eq3.15's slowly decaying summand
2 H_n^2/((n+1)(n+2)) gives 5.2713 instead of 5.2899.)
"""
import pytest

from eulersum import catalog
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
