"""Closed-form evaluators for the alternating harmonic-number sums.

Window-type alternating sums are restricted to integer shifts: for
non-integer real a the printed closed forms carry a (-1)^(2a) factor that is
complex-valued, and no branch convention is given, so the artifact refuses
rather than guessing.  The alternating window sum is O(k): its nested sum
over signed partial sums of 1/(j+a) is one running pass
(harmonic.nested_harmonic_sum with alternating=True).
"""
from __future__ import annotations

from .errors import DomainError
from .harmonic import nested_harmonic_sum, param_harmonic, shifted_harmonic
from .linear_sums import _zeta_shift
from .specfun import LN2, alt_hurwitz_zeta, alt_zeta, as_shift


def _zbar_shift(s: int, a: float) -> float:
    # alternating zeta with shift: sum (-1)^(n-1)/(n+a)^s, accelerated
    return alt_hurwitz_zeta(s, a)


def alt_recip_shift(a: float, s: int) -> float:
    """sum (-1)^(n-1)/(n (n+a)^s); reduces to the alternating zeta at a = 0."""
    a = float(a)
    if a < 0.0:
        raise DomainError(f"alt_recip_shift requires a >= 0, got {a}")
    if s < 1 or s != int(s):
        raise DomainError(f"alt_recip_shift requires integer s >= 1, got {s}")
    s = int(s)
    if a == 0.0:
        return alt_zeta(s + 1)
    return LN2 / a**s - sum(_zbar_shift(j, a) / a ** (s + 1 - j) for j in range(1, s + 1))


def alt_polylog_moment(m: int, a: float) -> float:
    """sum (-1)^(n-1)/(n^m (n+a)) for a > 0, by partial fractions."""
    a = as_shift(a, minimum=0.0)
    if m < 1 or m != int(m):
        raise DomainError(f"alt_polylog_moment requires integer m >= 1, got {m}")
    m = int(m)
    out = sum((-1.0) ** (l - 1) * alt_zeta(m + 1 - l) / a**l for l in range(1, m))
    return out + (-1.0) ** (m - 1) * (LN2 - _zbar_shift(1, a)) / a**m


def alt_sum_H1_power(a: float, s: int) -> float:
    """sum of alternating H-bar_n over (n+a)^s, for a >= 0 and s >= 2."""
    a = float(a)
    if a < 0.0:
        raise DomainError(f"alt_sum_H1_power requires a >= 0, got {a}")
    if s < 2 or s != int(s):
        raise DomainError(f"alt_sum_H1_power requires integer s >= 2, got {s}")
    s = int(s)
    out = 0.5 * sum(_zbar_shift(s - j, a) * _zbar_shift(j + 1, a) for j in range(1, s - 1))
    out -= 0.5 * s * _zeta_shift(s + 1, a)
    out += _zeta_shift(s, a) * LN2
    out += _zbar_shift(s, a) * _zbar_shift(1, a)
    return out + alt_recip_shift(a, s)


def alt_sum_H1_bilinear(a: float, b: float, *, as_printed: bool = False) -> float:
    """sum H-bar_n/((n+a)(n+b)) for distinct a, b > 0.

    Default form carries symmetric 1/2 factors on both squared
    alternating-zeta terms, as the limit derivation forces; the as-printed
    variant nests an extra 1/2 on one square and is kept for refutation
    reporting.
    """
    a = as_shift(a, minimum=0.0, name="a")
    b = as_shift(b, minimum=0.0, name="b")
    if a == b:
        raise DomainError("alt_sum_H1_bilinear requires a != b")
    # partial fractions of sum (-1)^(n-1)/(n(n+a)(n+b))
    lead = (LN2 / (a * b)
            - _zbar_shift(1, a) / (a * (b - a))
            + _zbar_shift(1, b) / (b * (b - a)))
    out = lead + LN2 * (shifted_harmonic(b) - shifted_harmonic(a)) / (b - a)
    za, zb_ = _zbar_shift(1, a), _zbar_shift(1, b)
    if as_printed:
        out += (zb_**2 - 0.5 * za**2) / (2.0 * (a - b))
        out += (_zeta_shift(2, a) - _zeta_shift(2, b)) / (2.0 * (a - b))
    else:
        out += (zb_**2 - za**2 + _zeta_shift(2, a) - _zeta_shift(2, b)) / (2.0 * (a - b))
    return out


def _require_integer_shift(a: float, minimum: int) -> int:
    a = float(a)
    if not a.is_integer():
        raise DomainError(
            f"alternating window sums require integer a (got {a}): the closed "
            "form's (-1)^(2a) factor has no real branch for non-integer shifts"
        )
    if a < minimum:
        raise DomainError(f"integer shift a={a} must be >= {minimum}")
    return int(a)


def alt_sum_Hm_window(a: float, k: int, m: int) -> float:
    """sum H-bar_n^(m)/((n+a)(n+a+k)) for integer a >= 0, k >= 1, m >= 1."""
    ai = _require_integer_shift(a, 0)
    if k < 1 or k != int(k) or m < 1 or m != int(m):
        raise DomainError("alt_sum_Hm_window requires integers k >= 1 and m >= 1")
    k, m = int(k), int(m)
    a = float(ai)
    br = alt_recip_shift(a, m) if ai == 0 else alt_polylog_moment(m, a)
    sgn = (-1.0) ** (m - 1)
    br += sgn * LN2 * param_harmonic(k - 1, m, a)
    br += sgn * _zbar_shift(1, a) * sum((-1.0) ** (i - 1) / (i + a) ** m for i in range(1, k))
    br -= sgn * nested_harmonic_sum(k, m, a, alternating=True)
    br += sum(
        (-1.0) ** (j - 1) * alt_zeta(m + 1 - j) * param_harmonic(k - 1, j, a)
        for j in range(1, m)
    )
    return br / k
