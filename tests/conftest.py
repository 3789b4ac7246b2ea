"""Shared high-precision references for the test modules."""
import pytest


@pytest.fixture
def lemma_moment_ref():
    """sum_{k>=1} x^(k+a+c) / ((k+a)^m (k+a+c)) by mpmath at 30 digits.

    It is the integral of H_m(t, a) t^(c-1) over (0, x), and at a = 0 that of
    Li_m(t) t^(c-1): the left sides of eq1.19 and eq1.23 with c = n + b.  The
    terms are summed with mpmath.fsum until one falls below 1e-24 of the
    first; the rest is at most 1/(1-x) times that.
    """
    mpmath = pytest.importorskip("mpmath")

    def ref(x: float, c: float, m: int, a: float = 0.0) -> float:
        with mpmath.workdps(30):
            x, a, c = mpmath.mpf(x), mpmath.mpf(a), mpmath.mpf(c)
            xk = x ** (a + c)
            ka = a
            terms = []
            while True:
                ka += 1
                xk *= x
                terms.append(xk / (ka**m * (ka + c)))
                if len(terms) == 1:
                    small = terms[0] * mpmath.mpf(10) ** -24
                elif terms[-1] < small:
                    return float(mpmath.fsum(terms))

    return ref
