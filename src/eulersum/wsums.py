"""Reciprocal-binomial W sums: sum_n numerator(n) / ((n+a)^p * binom(n+k+b, k)).

Expanding 1/binom(n+k+a, k) over its simple poles writes a W sum as
sum_r (-1)^(r+1) r C(k, r) times a window sum of width r.  The weights reach
about 2^k and alternate, so evaluating that sum in floating point loses about
k bits.  For the shapes with p <= 1, swapping the order of summation
with sum_{r>i} (-1)^(r+1) C(k, r) = (-1)^i C(k-1, i) turns the window sums
into finite differences Delta[g] = sum_{i<k} (-1)^i C(k-1, i) g(i), where g(i)
is built from 1/(a+i) and its running prefix sums.  Those differences are
computed exactly in Python integers: a float shift is a dyadic rational
N/D, so 1/(a+i) = D (L/q_i)/L with q_i = iD + N and L = prod q_i.  Each
difference is converted to float once, by correctly rounded integer
division, and only then multiplied by its transcendental constant (zeta
values, H_a, ln 2).  The alternating shapes also need
zbar(1, a) = (-1)^a (ln 2 - H-bar_a), whose two differences cancel by about
2^k; it is held to 60 digits.  This covers w_m_0, w_m_1, w_11_0, w_111,
w_alt_m_0, w_alt_m_1 and classical_w111, for k <= 60, in O(k) big-integer
steps.  Those integers reach about (m+1) bits(L) bits for a difference of
order m, and the m powers L^j cost about (m+1)^2 bits(L) bit operations; a
shape past _EXACT_MAX_BITS or _EXACT_MAX_WORK (a shift with a long
numerator, such as a = 1e300, or a large order m) raises DomainError rather
than run for seconds to minutes.  The float sum that w_m_1 and w_m_0 make of
the differences cancels for a < 1 and a large order (terms of about a^-m);
when its roundoff could reach 1e-9 of the result it raises DomainError too.

The power shape w_1_p (p >= 1 with two shifts, plain or alternating=True)
still sums the partial-fraction weights over bilinear and power sums in
floating point.  Its sums over r are transcendental in r, so it keeps the
k <= 30 cap and the precision_warning advisory.
"""
from __future__ import annotations

import math
import sys

from .errors import DomainError
from .harmonic import harmonic_num, shifted_harmonic
from .linear_sums import alt_sum_H1_power, sum_H1_bilinear, sum_H1_power
from .specfun import LN2, alt_zeta, as_shift, riemann_zeta

_PF_MAX_K = 60
_CLOSED_FORM_MAX_K = 30
_PRECISION_WARN_K = 20
_EXACT_MAX_BITS = 1 << 17  # integer size the exact W differences may reach
_EXACT_MAX_WORK = 1 << 22  # (order+1)^2 bits(L): the cost of the powers L^j
_MAX_ROUNDOFF = 1e-9       # largest eps * sum|terms| / |W| a float W sum may have

_SCALE = 10**60
_LN2_SCALED = 693147180559945309417232121458176568075500134360255254120680  # floor(ln 2 * 10^60)
_ALT_ASYMPTOTIC_A = 4096
# B_2 .. B_20 as exact fractions
_BERNOULLI_EXACT = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
                    (-3617, 510), (43867, 798), (-174611, 330))


def pf_coeffs(k: int) -> tuple[float, ...]:
    """Simple-pole expansion weights A_r = (-1)^(r+1) r C(k, r), r = 1..k, with
    1/binom(n+k+a, k) = sum_r A_r/(n+a+r)."""
    if not 1 <= k <= _PF_MAX_K:
        raise DomainError(f"pf_coeffs supports 1 <= k <= {_PF_MAX_K}")
    k = int(k)
    return tuple(float((-1) ** (r + 1) * r * math.comb(k, r)) for r in range(1, k + 1))


def _guard_k(k: int, minimum: int = 1, cap: int = _PF_MAX_K) -> int:
    if k < minimum or k != int(k):
        raise DomainError(f"k={k} must be an integer >= {minimum}")
    k = int(k)
    if k > cap:
        why = (": the alternating partial-fraction weights grow like 2^k and wash out "
               "double precision" if cap == _CLOSED_FORM_MAX_K else "")
        raise DomainError(f"closed-form W evaluation capped at k <= {cap}{why}")
    return k


def precision_warning(k: int) -> str | None:
    """Advisory message for w_1_p, the shape still summed over
    partial-fraction weights in floating point, once those weights' growth
    starts costing digits."""
    if k > _PRECISION_WARN_K:
        return (
            f"k={k}: partial-fraction weights reach ~2^{k}; expect roughly "
            f"{k - _PRECISION_WARN_K} fewer trustworthy digits"
        )
    return None


def _check_resonance(a: float, b: float, k: int):
    d = a - b
    r = round(d)
    if 1 <= r <= k and abs(d - r) <= 1e-12 * max(1.0, abs(d)):
        raise DomainError(
            f"resonance a = b + r at r={r}: the partial-fraction denominator "
            "collides with the power factor"
        )


def w_1_p(a: float, b: float, k: int, p: int, *, alternating: bool = False) -> float:
    """W sum with numerator H_n, or H-bar_n when alternating, over
    (n+a)^p binom(n+k+b, k), p >= 1."""
    a = as_shift(a, minimum=0.0, name="a")
    b = as_shift(b, minimum=0.0, name="b")
    k = _guard_k(k, cap=_CLOSED_FORM_MAX_K)
    if p < 1 or p != int(p):
        raise DomainError(f"w_1_p requires integer p >= 1, got {p}")
    p = int(p)
    _check_resonance(a, b, k)
    power = alt_sum_H1_power if alternating else sum_H1_power
    powers = [(j, power(a, j)) for j in range(2, p + 1)]  # the same for every r
    out = 0.0
    for r, c in zip(range(1, k + 1), pf_coeffs(k)):
        out += c * sum_H1_bilinear(a, b + r, alternating=alternating) / (a - b - r) ** (p - 1)
        out -= c * sum(pw / (a - b - r) ** (p + 1 - j) for j, pw in powers)
    return out


def _weights(k: int) -> list[int]:
    """(-1)^i C(k-1, i) for i < k: sum_{r>i} (-1)^(r+1) C(k, r) = (-1)^i C(k-1, i)
    turns the sum over window widths into a finite difference over i."""
    return [(-1) ** i * math.comb(k - 1, i) for i in range(k)]


def _reciprocals(a: float, k: int, order: int) -> tuple[list[int], int]:
    """Integers u_i and L with 1/(a+i) = u_i/L exactly, for i < k.

    With a = N/D (a float is a dyadic rational), q_i = iD + N, L = prod q_i
    and u_i = D L/q_i.  A difference of (a+i)^-order terms works on integers
    of about (order+1) bits(L) bits and takes the powers L^j, j <= order, at
    about (order+1)^2 bits(L) bit operations; past _EXACT_MAX_BITS or
    _EXACT_MAX_WORK that would run for seconds to minutes, so it raises
    DomainError instead.
    """
    num, den = a.as_integer_ratio()
    q = [i * den + num for i in range(k)]
    big_l = math.prod(q)
    bits = (order + 1) * big_l.bit_length()
    if bits > _EXACT_MAX_BITS:
        raise DomainError(f"exact W difference at a={a}, k={k}, order {order} needs "
                          f"{bits}-bit integers, over the {_EXACT_MAX_BITS}-bit budget")
    if (order + 1) * bits > _EXACT_MAX_WORK:
        raise DomainError(f"exact W difference at a={a}, k={k}, order {order} needs "
                          f"{order + 1} powers of a {big_l.bit_length()}-bit integer, "
                          f"over the budget of {_EXACT_MAX_WORK} bit operations")
    return [den * (big_l // qi) for qi in q], big_l


def _w_m_1(a: float, k: int, m: int) -> float:
    # W = sum_{j<m} (-1)^(j-1) zeta(m+1-j) D_j + s H_a D_m + s Delta[h_i/(a+i)^m]
    # with s = (-1)^(m-1), D_j = Delta[(a+i)^-j], h_i = sum_{1<=l<=i} 1/(a+l)
    u, big_l = _reciprocals(a, k, m)
    diffs = [0] * (m + 1)
    nested = h = 0
    for i, (w, ui) in enumerate(zip(_weights(k), u)):
        if i:
            h += ui
        for j in range(1, m + 1):
            w *= ui
            diffs[j] += w
        nested += h * w
    try:
        d = [n / big_l**j for j, n in enumerate(diffs)]
        nested = nested / big_l ** (m + 1)
    except OverflowError as exc:
        raise DomainError(f"exact W difference at a={a}, k={k}, order {m} is outside "
                          f"double-precision range (OverflowError: {exc})") from exc
    s = (-1.0) ** (m - 1)
    terms = [(-1.0) ** (j - 1) * riemann_zeta(m + 1 - j) * d[j] for j in range(1, m)]
    last = shifted_harmonic(a) * d[m]
    out = sum(terms) + s * (last + nested)
    size = sum(map(abs, terms)) + abs(last) + abs(nested)
    if sys.float_info.epsilon * size > _MAX_ROUNDOFF * abs(out):
        raise DomainError(f"W sum at a={a}, k={k}, order {m} cancels: its terms reach "
                          f"{size:.3e} against a sum of {out:.3e}, past double precision")
    return out


def _order(m: int, name: str) -> int:
    if m < 1 or m != int(m):
        raise DomainError(f"{name} requires integer m >= 1, got {m}")
    return int(m)


def w_m_0(b: float, k: int, m: int) -> float:
    """W sum with numerator H_n^(m) and no power factor (p = 0), k >= 2.

    With p = 0 the sum depends only on the binomial shift, exposed as the
    single parameter b.  1/binom(n+k+b, k) = k/((n+b+1) binom(n+k+b, k-1))
    makes it k w_m_1(b+1, k-1, m).
    """
    b = as_shift(b, minimum=-1.0, name="b")
    k = _guard_k(k, minimum=2)
    return k * _w_m_1(b + 1.0, k - 1, _order(m, "w_m_0"))


def w_m_1(a: float, k: int, m: int) -> float:
    """W sum with numerator H_n^(m) over (n+a) binom(n+k+a, k)."""
    a = as_shift(a, minimum=0.0)
    k = _guard_k(k)
    return _w_m_1(a, k, _order(m, "w_m_1"))


def _w_111(a: float, k: int, h_factor: float) -> float:
    # W = (zeta(2) + H_a^2 + H_a^(2)) D_1 - H_a D_2 + 2 H_a Delta[h_i/(a+i)]
    #     + Delta[(h_i^2 + h2_i)/(a+i) - h_i/(a+i)^2]
    # with h_i, h2_i = sum_{1<=l<=i} 1/(a+l)^(1 or 2); h_factor stands in for
    # the H_a of the D_2 term
    u, big_l = _reciprocals(a, k, 2)
    d1 = d2 = lin = quad = h = h2 = 0
    for i, (w, ui) in enumerate(zip(_weights(k), u)):
        if i:
            h += ui
            h2 += ui * ui
        wu = w * ui
        d1 += wu
        d2 += wu * ui
        lin += wu * h
        quad += wu * (h * h + h2 - h * ui)
    ha = shifted_harmonic(a)
    out = (riemann_zeta(2) + ha * ha + shifted_harmonic(a, 2)) * (d1 / big_l)
    out += 2.0 * ha * (lin / big_l**2) - h_factor * (d2 / big_l**2)
    return out + quad / big_l**3


def w_11_0(b: float, k: int, *, as_printed: bool = False) -> float:
    """W sum with numerator H_n^2 and p = 0, k >= 2: k w_111(b+1, k-1).

    The corrected form multiplies the H H^(2) window term by H_(b+1); the
    as-printed variant uses H_b and is retained for refutation reporting.
    """
    b = as_shift(b, name="b")
    if b < 0.0:
        raise DomainError(f"w_11_0 requires b >= 0, got {b}")
    k = _guard_k(k, minimum=2)
    h_factor = shifted_harmonic(b) if as_printed else shifted_harmonic(b + 1.0)
    return k * _w_111(b + 1.0, k - 1, h_factor)


def w_111(a: float, k: int) -> float:
    """W sum with numerator H_n^2 over (n+a) binom(n+k+a, k)."""
    a = as_shift(a, minimum=0.0)
    k = _guard_k(k)
    return _w_111(a, k, shifted_harmonic(a))


def _alt_tail_scaled(a: int) -> int:
    """zbar(1, a) = sum (-1)^(n-1)/(n+a) = (-1)^a (ln 2 - H-bar_a), times 10^60.

    Exact but for one unit per term: H-bar_a summed in fixed point below
    _ALT_ASYMPTOTIC_A, and above it, with b = a//2,
    ln 2 - H-bar_2b = 1/(4b) + sum_j B_2j/(2j) ((2b)^-2j - b^-2j), whose first
    omitted term is below 1e-70.
    """
    if a < _ALT_ASYMPTOTIC_A:
        tail = _LN2_SCALED - sum((_SCALE if j % 2 else -_SCALE) // j for j in range(1, a + 1))
    else:
        b = a // 2
        tail = _SCALE // (4 * b)
        for j, (bn, bd) in enumerate(_BERNOULLI_EXACT, start=1):
            tail += bn * _SCALE * (1 - 4**j) // (2 * j * bd * (2 * b) ** (2 * j))
        if a % 2:
            tail -= _SCALE // a
    return -tail if a % 2 else tail


def _w_alt_m_1(a: int, k: int, m: int) -> float:
    # As _w_m_1, with zbar(1, a) in place of H_a:
    #   W = sum_{j<m} (-1)^(j-1) eta(m+1-j) D_j + s ln2 D_m
    #       - s sum_i C(k-1, i) (zbar(1, a) - hb_i)/(a+i)^m,
    # hb_i = sum_{1<=l<=i} (-1)^(l-1)/(a+l).  The last sum's two parts are
    # each about 2^k times W; they cancel exactly with zbar(1, a) held to 60
    # digits.
    u, big_l = _reciprocals(float(a), k, m)
    z = _alt_tail_scaled(a) * big_l
    diffs = [0] * (m + 1)
    rest = hb = 0
    for i, (w, ui) in enumerate(zip(_weights(k), u)):
        if i:
            hb += ui if i % 2 else -ui
        for j in range(1, m + 1):
            w *= ui
            diffs[j] += w
        rest += (-1) ** i * w * (z - hb * _SCALE)
    try:
        d = [n / big_l**j for j, n in enumerate(diffs)]
        rest = rest / (_SCALE * big_l ** (m + 1))
    except OverflowError as exc:
        raise DomainError(f"exact W difference at a={a}, k={k}, order {m} is outside "
                          f"double-precision range (OverflowError: {exc})") from exc
    s = (-1.0) ** (m - 1)
    out = sum((-1.0) ** (j - 1) * alt_zeta(m + 1 - j) * d[j] for j in range(1, m))
    return out + s * (LN2 * d[m] - rest)


def w_alt_m_0(a: float, k: int, m: int) -> float:
    """Alternating H-bar_n^(m) over binom(n+k+a, k); integer a >= 0, k >= 2.

    Equals k w_alt_m_1(a+1, k-1, m), as w_m_0 does w_m_1.
    """
    af = float(a)
    if not af.is_integer() or af < 0:
        raise DomainError(f"w_alt_m_0 requires integer a >= 0, got {a}")
    k = _guard_k(k, minimum=2)
    return k * _w_alt_m_1(int(af) + 1, k - 1, _order(m, "w_alt_m_0"))


def w_alt_m_1(a: float, k: int, m: int) -> float:
    """Alternating H-bar_n^(m) over (n+a) binom(n+k+a, k); integer a >= 1."""
    af = float(a)
    if not af.is_integer() or af < 1:
        raise DomainError(f"w_alt_m_1 requires integer a >= 1, got {a}")
    k = _guard_k(k)
    return _w_alt_m_1(int(af), k, _order(m, "w_alt_m_1"))


def classical_w110(k: int) -> float:
    """Classical H_n^2 / binom(n+k, k) value, k >= 2."""
    if k < 2 or k != int(k):
        raise DomainError(f"classical_w110 requires integer k >= 2, got {k}")
    k = int(k)
    return k / (k - 1.0) * (riemann_zeta(2) - harmonic_num(k - 1, 2) + 2.0 / (k - 1.0) ** 2)


def classical_w111(k: int) -> float:
    """Classical H_n^2 / (n binom(n+k, k)) value, k >= 1.

    3 zeta(3) + zeta(2) sum_{i<k} (-1)^i C(k-1, i)/i plus the rational
    sum_r (-1)^(r+1) C(k, r) [Y_3(r)/3 - Y_2(r)/r - sum_{i<r} H_i/i^2], the
    latter in integers over 3 L^3 with L = lcm(1..k), so the alternating
    weights cancel exactly.
    """
    k = _guard_k(k)
    big_l = math.lcm(*range(1, k + 1))
    z2 = rat = h1 = h2 = h3 = nested = 0  # h_s = L^s H_r^(s), nested = L^3 sum_{i<r} H_i/i^2
    for r in range(1, k + 1):
        c = big_l // r
        if r < k:
            z2 += (-1) ** r * math.comb(k - 1, r) * c
        nested_r = nested
        h1 += c
        h2 += c * c
        h3 += c * c * c
        nested += h1 * c * c
        y3 = h1 * (h1 * h1 + 3 * h2) + 2 * h3
        y2 = h1 * h1 + h2
        rat += (-1) ** (r + 1) * math.comb(k, r) * (y3 - 3 * c * y2 - 3 * nested_r)
    return 3.0 * riemann_zeta(3) + riemann_zeta(2) * (z2 / big_l) + rat / (3 * big_l**3)
