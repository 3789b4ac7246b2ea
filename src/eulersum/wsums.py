"""Reciprocal-binomial W sums: sum_n numerator(n) / ((n+a)^p * binom(n+k+b, k)).

Expanding 1/binom(n+k+b, k) over its simple poles writes a W sum as
sum_r A_r (...)/(n+b+r), A_r = (-1)^(r+1) r C(k, r).  The weights reach about
2^k and alternate, so every sum over r cancels by about k bits, and more
where the shifts are large.  Each shape here reduces the W sum to a few
transcendental constants, each evaluated once per call, times a few finite
sums over r (or i) of rational sequences, and computes those sums in fixed
point (_fixed_point): 1/(a+i), 1/(b+l) and 1/(a-b-r) are integers at scale
2^S, each product is truncated back to S fractional bits, and the running
prefix sums h_i = sum_{1<=l<=i} 1/(a+l) (and their squared and alternating
twins) are integer sums.  The integers hold S bits plus the bits of the
weights and of the largest term, whatever the bits of the shifts.  Every
sum carries a bound on its truncation error, a count of truncations times
the size of the factors they ride on; S starts from an estimate of the
smallest sum and grows until each bound is below 2^-60 of its sum, and
until the sum rounds to one double whichever end of its error interval it
takes.  So each sum reaches the float combination correctly rounded, as
exact rational arithmetic would give it.  A shape whose S times its number
of sequences per index would pass _FIXED_MAX_BITS (a = 1e300 with m >= 2 at
k = 60, or a large order m) raises DomainError rather than run for seconds,
as does one whose terms reach past double-precision range.

The shapes with p <= 1 (w_m_0, w_m_1, w_11_0, w_111, w_alt_m_0, w_alt_m_1)
swap the order of summation with sum_{r>i} (-1)^(r+1) C(k, r) =
(-1)^i C(k-1, i), which turns the window sums into finite differences
Delta[g] = sum_{i<k} (-1)^i C(k-1, i) g(i) of sequences built from 1/(a+i).
The alternating ones carry zbar(1, a+i) = sum (-1)^(n-1)/(n+a+i) through
the difference; it steps by rationals from zbar(1, a), whose share cancels
by about 2^k, so zbar(1, a) is summed at scale 2^S too (_zbar_fixed).

The power shape w_1_p (p >= 1, two shifts, plain or alternating) splits
1/((n+a)^p (n+b+r)) into a bilinear sum over (n+a)(n+b+r) and the power
sums P_j(a) = sum h_n/(n+a)^j.  The bilinear sum is (F(a) - F(b+r))/(a-b-r)
with the potential F of linear_sums, and F(b+r) steps from a constant at b
by exact rationals: with h_r, h2_r the prefix sums of 1/(b+l) and
1/(b+l)^2, and rho_r = 1/(b+r) - rho_(r-1),
    plain:        F(b+r) = F0(b) + H_b h_(r-1) + (h_(r-1)^2 + h2_(r-1))/2,
                  F0(b) = H_b^2/2 - zeta(2, b+1)/2;
    alternating:  F(b+r) = F0(b) + ln2 h_(r-1)
                           - (rho_(r-1)^2 + h2_(r-1) - 2 (-1)^r zbar(1, b) rho_(r-1))/2,
                  F0(b) = ln2 H_b - zbar(1, b)^2/2 + zeta(2, b+1)/2.
So W = (F(a) - F0(b)) T_p - c S_1 -+ S_2/2 - sum_{j=2..p} P_j(a) T_(p+1-j),
with c = H_b or ln 2, T_q = sum_r A_r/(a-b-r)^q, and S_1, S_2 the sums of
A_r/(a-b-r)^p times h_(r-1) and the quadratic term.  The alternating
quadratic term's two parts in zbar(1, b) cancel by about 2^k, and are
summed with zbar(1, b) at scale 2^S.  Near a resonance a = b + r the terms
outgrow the sum; the float combination of w_1_p, like that of w_m_1,
raises DomainError when its roundoff could reach 1e-9 of the result.
Every shape takes k <= 60.
"""
from __future__ import annotations

import math
import sys

from .errors import DomainError
from .harmonic import harmonic_num, shifted_harmonic
from .linear_sums import _alt_power, _potential, _power, _shift_table
from .specfun import (LN2, alt_hurwitz_zeta, alt_zeta, as_integer, as_shift, hurwitz_zeta,
                      riemann_zeta)

_MAX_K = 60
_PRECISION_WARN_K = 20
_FIXED_MAX_BITS = 1 << 17  # S times the sequences per index: the fixed-point state
_RESOLVE_BITS = 60         # each fixed-point sum is resolved to 2^-60 of itself
_MIN_BITS = 64             # the least S tried
_MAX_ROUNDOFF = 1e-9       # largest eps * sum|terms| / |W| a float W sum may have
_ZBAR_DIRECT = 64          # integer shifts below this take zbar(1, x) from ln 2
_LN2_BITS = 384           # _LN2_FIXED = floor(ln 2 * 2^384)
_LN2_FIXED = int("b17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d"
                 "8a0d175b8baafa2be7b876206debac98559552fb4afa1b10", 16)


def _guard_k(k: int, minimum: int = 1) -> int:
    k = as_integer(k, minimum, "k")
    if k > _MAX_K:
        raise DomainError(f"closed-form W evaluation capped at k <= {_MAX_K}")
    return k


def precision_warning(k: int) -> str | None:
    """Advisory once partial-fraction weights reach ~2^20.

    No W shape loses digits with k any more: this is kept only for
    perfbench/make_pool.py, which imports it, until ROADMAP item 12 drops
    that import.
    """
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


def _fixed_point(run, errs: list, order: int, size: float, where) -> list[float]:
    """The doubles of the sums run(S) computes at scale 2^S.

    run(S) returns the sums as integers n; errs holds, for each, a positive
    integer log2 of a bound on |n - 2^S sum| (None for a sum run computes
    exactly).  S starts from size, a guess at log2 of the smallest sum, and
    grows by the shortfall until each bound is below 2^-60 of its sum (of
    the largest sum, 2^-60 of it, for a sum that small), and until each sum
    lies with its whole error interval in one double's rounding range, so
    the double is the correctly rounded sum.  A tie would never settle that
    way; after two tries the nearest double of n/2^S stands.  The budget is
    on S times order + 1, the sequences carried per index; where() names
    the shape in an error.
    """
    s = max(_MIN_BITS, max(filter(None, errs)) - math.floor(size) + _RESOLVE_BITS + 8)
    tries = 0
    while True:
        _check_budget(order, s, where)
        sums = run(s)
        mags = [abs(n) for n in sums]
        top = max(mags).bit_length() - _RESOLVE_BITS
        short = 0
        undecided = False
        for n, e in zip(mags, errs):
            if e is None:
                continue
            bits = n.bit_length()
            if bits > e + _RESOLVE_BITS and bits > top:
                # a double rounds n to a multiple of 2 half (normal or
                # subnormal): n -+ 2^e must hold no midpoint between two
                half = 1 << (bits - 54 if bits - s >= -1021 else s - 1075)
                undecided = undecided or abs((n & (2 * half - 1)) - half) <= 1 << e
            else:
                short = max(short, e + _RESOLVE_BITS + 1 - max(bits, top))
        if short > 0:
            s += short + 16
        elif undecided and tries < 2:
            tries += 1
            s += 32
        else:
            scale = 1 << s
            try:
                return [n / scale for n in sums]
            except OverflowError as exc:
                raise DomainError(f"{where()} is outside double-precision range "
                                  f"(OverflowError: {exc})") from exc


def _check_budget(order: int, s: int, where):
    if (order + 1) * s > _FIXED_MAX_BITS:
        raise DomainError(f"{where()} needs {order + 1} fixed-point sequences of {s} bits, "
                          f"over the {_FIXED_MAX_BITS}-bit budget")


def _check_size(order: int, term_bits: float, where):
    """Refuse, before any work, a shape whose largest terms reach 2^term_bits
    past double-precision range (its sums are dominated by them, and its
    integers would grow with them), or whose order is over the budget at
    the least S."""
    if term_bits >= 1024:
        raise DomainError(f"{where()} is outside double-precision range: its terms reach "
                          f"2^{term_bits:.0f}")
    _check_budget(order, _MIN_BITS, where)


def _difference_size(a: float, k: int, order: int) -> float:
    # log2 of D_1 = Delta[1/(a+i)] = (k-1)!/prod (a+i) = B(a, k), over
    # (a+k)^(order-1) for the higher powers and over 1+a for a prefix-sum
    # factor.  Past a = 2^20 lgamma(a+k) - lgamma(a) cancels; there the
    # product is within k^2/a of (a + (k-1)/2)^k.
    if a < 1 << 20:
        size = (math.lgamma(k) + math.lgamma(a) - math.lgamma(a + k)) / math.log(2)
    else:
        size = math.lgamma(k) / math.log(2) - k * math.log2(a + (k - 1) / 2)
    return size - (order - 1) * math.log2(a + k) - math.log2(1.0 + a)


def _zbar_fixed(x: float, s: int) -> int:
    """zbar(1, x) = sum (-1)^(n-1)/(n+x) at scale 2^s, off by < 2 units.

    At an integer x below _ZBAR_DIRECT it is (-1)^x (ln 2 - H-bar_x), from
    _LN2_FIXED while that holds the bits.  Otherwise the first 16 terms are
    summed in pairs, 1/((n+x)(n+1+x)), and Euler's transformation turns the
    rest, zbar(1, y) with y = x + 16, into the positive terms
    t_0 = 1/(2(y+1)), t_j = t_(j-1) j/(2(y+1+j)), each below half the one
    before, and at first far below.  Either way the terms are summed with
    guard bits that absorb their truncation and the rest of the series.
    """
    g = s.bit_length() + 5
    if x.is_integer() and x < _ZBAR_DIRECT and s + g <= _LN2_BITS:
        n, one = int(x), 1 << (s + g)
        tail = (_LN2_FIXED >> (_LN2_BITS - s - g)) - sum(
            one // j if j % 2 else -(one // j) for j in range(1, n + 1))
        return (-tail if n % 2 else tail) >> g
    num, den = x.as_integer_ratio()
    one = den << (s + g)
    total = sum(one * den // ((num + n * den) * (num + (n + 1) * den)) for n in range(1, 17, 2))
    base = 2 * (num + 17 * den)
    t = one // base
    j = 0
    while t:
        total += t
        j += den
        t = t * j // (base + 2 * j)
    return total >> g


def _difference_sums(a: float, k: int, m: int, alternating: bool) -> list[float]:
    """D_1 .. D_m and Delta[g_i/(a+i)^m], D_j = Delta[(a+i)^-j].

    g_i = H_(a+i) - H_a steps by g_i = g_(i-1) + 1/(a+i) from g_0 = 0; the
    alternating g_i = zbar(1, a+i) steps by g_i = 1/(a+i) - g_(i-1) from
    zbar(1, a), whose share of the last sum cancels by about 2^k.  Errors in
    units of 2^-S: u_i = 1/(a+i) is off by < 1, its j-th power by < 2j X^j
    (X = max(1, 1/a) bounds u_0; u_i <= 1 for i >= 1), and g_i by < i + 2,
    with |g_i| <= max(i, 1); the weights sum to 2^(k-1) in size.
    """
    def where():
        return f"exact W difference at a={a}, k={k}, order {m}"

    lx = -math.log2(a) if a < 1.0 else 0.0
    _check_size(m, m * lx, where)
    num, den = a.as_integer_ratio()
    errs = [(4 * j).bit_length() + math.ceil(j * lx) + k - 1 for j in range(1, m + 1)]
    errs.append((4 * (2 * m + 1) * (k + 1)).bit_length() + k - 1 if alternating or k > 1 else None)

    def run(s):
        one = den << s
        diffs = [0] * m
        last = 0
        g = _zbar_fixed(a, s) if alternating else 0
        w = 1
        for i in range(k):
            u = one // (num + i * den)
            p = u
            diffs[0] += w * p
            for j in range(1, m):
                p = p * u >> s
                diffs[j] += w * p
            if i:
                g = u - g if alternating else g + u
            last += w * g * p
            w = -w * (k - 1 - i) // (i + 1)  # (-1)^i C(k-1, i)
        return diffs + [last >> s]

    return _fixed_point(run, errs, m, _difference_size(a, k, m), where)


def _w_m_1(a: float, k: int, m: int, alternating: bool = False) -> float:
    # W = Delta[M_m(a+i)] with M_m(c) = sum (+-1)^(n-1)/(n^m (n+c))
    #   = sum_{l<m} (-1)^(l-1) L(m+1-l)/c^l + (-1)^(m-1) R(c)/c^m (as in
    # linear_sums.polylog_moment), so
    #   W = sum_{j<m} (-1)^(j-1) L(m+1-j) D_j + s c D_m +- s Delta[g_i/(a+i)^m]
    # with s = (-1)^(m-1) and c = H_a, or ln 2 with R(a+i) = ln 2 - g_i
    *d, last = _difference_sums(a, k, m, alternating)
    s = 1.0 if m % 2 else -1.0
    zeta = alt_zeta if alternating else riemann_zeta
    terms = [(zeta(m + 1 - j) if j % 2 else -zeta(m + 1 - j)) * d[j - 1] for j in range(1, m)]
    if alternating:
        first, last = LN2 * d[m - 1], -last
    else:
        first = shifted_harmonic(a) * d[m - 1]
    out = sum(terms) + s * (first + last)
    size = sum(map(abs, terms)) + abs(first) + abs(last)
    if sys.float_info.epsilon * size > _MAX_ROUNDOFF * abs(out):
        raise DomainError(f"W sum at a={a}, k={k}, order {m} cancels: its terms reach "
                          f"{size:.3e} against a sum of {out:.3e}, past double precision")
    return out


def _order(m: int, name: str) -> int:
    return as_integer(m, 1, f"{name} order m")


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


def _w_111_sums(a: float, k: int) -> list[float]:
    """D_1, D_2, Delta[h_i/(a+i)] and Delta[(h_i h_(i-1) + h2_i)/(a+i)], with
    h_i, h2_i = sum_{1<=l<=i} 1/(a+l)^(1 or 2).

    Errors as in _difference_sums: u_i^2 is off by < 3 X^2, h2_i by < 3i,
    and the quadratic term by < 8 i^2 before its weight.
    """
    def where():
        return f"exact W difference at a={a}, k={k}, order 2"

    lx = -math.log2(a) if a < 1.0 else 0.0
    _check_size(2, 2 * lx, where)
    num, den = a.as_integer_ratio()
    errs = [math.ceil(lx) + k, math.ceil(2 * lx) + k + 2]
    if k > 1:
        errs += [(8 * (k - 1)).bit_length() + k - 1, (32 * (k - 1) ** 2).bit_length() + k - 1]
    else:
        errs += [None, None]

    def run(s):
        one = den << s
        d1 = d2 = lin = quad = h = h2 = 0
        w = 1
        for i in range(k):
            u = one // (num + i * den)
            u2 = u * u >> s
            d1 += w * u
            d2 += w * u2
            if i:
                wu = w * u
                lin += wu * (h + u)
                quad += wu * (((h + u) * h >> s) + h2 + u2)
                h += u
                h2 += u2
            w = -w * (k - 1 - i) // (i + 1)
        return [d1, d2, lin >> s, quad >> s]

    return _fixed_point(run, errs, 2, _difference_size(a, k, 2), where)


def _w_111(a: float, k: int, h_factor: float) -> float:
    # W = (zeta(2) + H_a^2 + H_a^(2)) D_1 - H_a D_2 + 2 H_a Delta[h_i/(a+i)]
    #     + Delta[(h_i^2 + h2_i - h_i/(a+i))/(a+i)], where h_i^2 - h_i/(a+i)
    # is h_i h_(i-1); h_factor stands in for the H_a of the D_2 term
    d1, d2, lin, quad = _w_111_sums(a, k)
    ha = shifted_harmonic(a)
    out = (riemann_zeta(2) + ha * ha + shifted_harmonic(a, 2)) * d1
    out += 2.0 * ha * lin - h_factor * d2
    return out + quad


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


def w_alt_m_0(a: float, k: int, m: int) -> float:
    """Alternating H-bar_n^(m) over binom(n+k+a, k); integer a >= 0, k >= 2.

    Equals k w_alt_m_1(a+1, k-1, m), as w_m_0 does w_m_1.
    """
    af = float(a)
    if not af.is_integer() or af < 0:
        raise DomainError(f"w_alt_m_0 requires integer a >= 0, got {a}")
    k = _guard_k(k, minimum=2)
    return k * _w_m_1(af + 1.0, k - 1, _order(m, "w_alt_m_0"), alternating=True)


def w_alt_m_1(a: float, k: int, m: int) -> float:
    """Alternating H-bar_n^(m) over (n+a) binom(n+k+a, k); integer a >= 1."""
    af = float(a)
    if not af.is_integer() or af < 1:
        raise DomainError(f"w_alt_m_1 requires integer a >= 1, got {a}")
    k = _guard_k(k)
    return _w_m_1(af, k, _order(m, "w_alt_m_1"), alternating=True)


def _power_sums(a: float, b: float, k: int, p: int, alternating: bool) -> list[float]:
    """T_1 .. T_p, S_1 and S_2 of w_1_p, as doubles.

    T_q = sum_r A_r y_r^q with y_r = 1/(a-b-r), and S_1, S_2 the sums of
    A_r y_r^p times h_(r-1) and h_(r-1)^2 + h2_(r-1), or, alternating,
    rho_(r-1)^2 + h2_(r-1) - 2 (-1)^r zbar(1, b) rho_(r-1): its two parts in
    zbar(1, b) are each about 2^k times the sum, and cancel here.  Errors in
    units of 2^-S: y_r is off by < 1 and its q-th power by < 2q Y^q,
    Y = max(1, max |y_r|); h_(r-1), rho_(r-1), h2_(r-1) and zbar(1, b) by
    < r-1, r-1, 3(r-1) and 2, with h_(r-1) <= r-1 and |rho_(r-1)| <= 1; the
    weights sum to k 2^(k-1).
    """
    def where():
        return f"exact W sums at a={a}, b={b}, k={k}, p={p}"

    (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
    cn, cd = na * db - nb * da, da * db  # a - b = cn/cd
    logs = [math.log2(abs(a - b - r)) for r in range(1, k + 1)]
    ly = max(0.0, -min(logs))
    _check_size(p, p * ly, where)
    wbits = math.log2(k) + k - 1 + p * ly
    errs = [(4 * q).bit_length() + math.ceil(wbits - (p - q) * ly) for q in range(1, p + 1)]
    if k > 1:
        errs += [(4 * (k - 1) * (p + 1)).bit_length() + math.ceil(wbits),
                 (2 * (2 * p + 14) * k * k).bit_length() + math.ceil(wbits)]
    else:
        errs += [None, None]

    def run(s):
        t = [0] * p
        s1 = s2 = h = h2 = rho = 0
        z = _zbar_fixed(b, s) if alternating and k > 1 else 0
        one, vone = cd << s, db << s
        c = 1
        for r in range(1, k + 1):
            c = c * (k + 1 - r) // r  # C(k, r)
            w = r * c if r % 2 else -r * c
            y = yp = one // (cn - r * cd)
            t[0] += w * y
            for q in range(1, p):
                yp = yp * y >> s
                t[q] += w * yp
            if r > 1:
                wy = w * yp
                s1 += wy * h
                if alternating:
                    zr = 2 * (z * rho >> s)
                    s2 += wy * ((rho * rho >> s) + h2 + (zr if r % 2 else -zr))
                else:
                    s2 += wy * ((h * h >> s) + h2)
            v = vone // (nb + r * db)
            h += v
            h2 += v * v >> s
            rho = v - rho
        return t + [s1 >> s, s2 >> s]

    # T_1 = -k!/prod_{i<=k} (b-a+i) exactly, and the higher powers shrink by
    # at most the largest |a-b-r| each; S_1 and S_2 run up to 2^16 below T_p
    size = math.lgamma(k + 1) / math.log(2) - sum(logs) - (p - 1) * max(0.0, max(logs)) - 16
    return _fixed_point(run, errs, p, size, where)


def w_1_p(a: float, b: float, k: int, p: int, *, alternating: bool = False) -> float:
    """W sum with numerator H_n, or H-bar_n when alternating, over
    (n+a)^p binom(n+k+b, k), p >= 1."""
    a = as_shift(a, minimum=0.0, name="a")
    b = as_shift(b, minimum=0.0, name="b")
    k = _guard_k(k)
    p = as_integer(p, 1, "w_1_p power p")
    _check_resonance(a, b, k)
    *t, s1, s2 = _power_sums(a, b, k, p, alternating)
    # every constant at a, for F(a) and each P_j(a), from one table
    z, ha = _shift_table(a, p + 1, False)
    hb, zeta_b = shifted_harmonic(b), hurwitz_zeta(2, b + 1.0)
    if alternating:
        zb_a, _ = _shift_table(a, p, True)
        zb = alt_hurwitz_zeta(1, b)
        fa, f0b = _potential(a, ha, z[2], zb_a[1]), (LN2 * hb, -0.5 * zb * zb, 0.5 * zeta_b)
        steps = [-LN2 * s1, 0.5 * s2]
        powers = [_alt_power(a, j, z[j], z[j + 1], zb_a) for j in range(2, p + 1)]
    else:
        fa, f0b = _potential(a, ha, z[2], None), (0.5 * hb * hb, -0.5 * zeta_b)
        steps = [-hb * s1, -0.5 * s2]
        powers = [_power(a, j, z, ha) for j in range(2, p + 1)]
    terms = [f * t[p - 1] for f in fa] + [-f * t[p - 1] for f in f0b] + steps
    terms += [-pj * t[p - j] for j, pj in enumerate(powers, start=2)]
    out = sum(terms)
    size = sum(map(abs, terms))
    if sys.float_info.epsilon * size > _MAX_ROUNDOFF * abs(out):
        raise DomainError(f"W sum at a={a}, b={b}, k={k}, p={p} cancels: its terms reach "
                          f"{size:.3e} against a sum of {out:.3e}, past double precision")
    return out


def classical_w110(k: int) -> float:
    """Classical H_n^2 / binom(n+k, k) value, k >= 2."""
    k = as_integer(k, 2, "classical_w110 k")
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
