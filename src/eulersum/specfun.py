"""Scalar special functions: gamma, digamma, polygamma, zeta variants, polylogarithms.

Everything here is a pure function of its float arguments, accurate to roughly
1e-12 relative or better on the documented domains, and safe to call
concurrently.  Internal lookup tables are immutable after import.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from functools import lru_cache

from .errors import ConvergenceError, DomainError, PoleError

EULER_GAMMA = 0.5772156649015328606065121
LN2 = 0.6931471805599453094172321

# zeta(s) for s = 2..20, 17 significant digits; direct summation past 20.
_ZETA_TABLE = {
    2: 1.6449340668482264, 3: 1.2020569031595943, 4: 1.0823232337111382,
    5: 1.0369277551433699, 6: 1.0173430619844491, 7: 1.0083492773819228,
    8: 1.0040773561979443, 9: 1.0020083928260822, 10: 1.0009945751278181,
    11: 1.0004941886041195, 12: 1.000246086553308, 13: 1.0001227133475785,
    14: 1.0000612481350587, 15: 1.000030588236307, 16: 1.0000152822594087,
    17: 1.0000076371976379, 18: 1.000003817293265, 19: 1.0000019082127166,
    20: 1.0000009539620339,
}

# B_2, B_4, ..., B_14 for the asymptotic digamma series and Euler-Maclaurin.
_B2K = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730, 7.0 / 6)

# B_0..B_31 (odd > 1 vanish), for zeta at nonpositive integers.
_BERNOULLI = (
    1.0, -0.5, 1.0 / 6, 0.0, -1.0 / 30, 0.0, 1.0 / 42, 0.0, -1.0 / 30, 0.0,
    5.0 / 66, 0.0, -691.0 / 2730, 0.0, 7.0 / 6, 0.0, -3617.0 / 510, 0.0,
    43867.0 / 798, 0.0, -174611.0 / 330, 0.0, 854513.0 / 138, 0.0,
    -236364091.0 / 2730, 0.0, 8553103.0 / 6, 0.0, -23749461029.0 / 870, 0.0,
    8615841276005.0 / 14322, 0.0,
)
_B2K_OVER_FACT = tuple(_BERNOULLI[2 * k] / math.factorial(2 * k) for k in range(16))


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _is_negative_integer(x: float) -> bool:
    return x < 0.0 and x == math.floor(x)


def as_shift(a, *, minimum: float | None = None, name: str = "a") -> float:
    """Validate a shift parameter and return it as a float."""
    a = float(a)
    if not math.isfinite(a):
        raise DomainError(f"{name} must be finite")
    if _is_negative_integer(a):
        raise DomainError(f"{name}={a} is a negative integer (excluded)")
    if minimum is not None and not a > minimum:
        if minimum == 0.0:
            raise DomainError(f"{name}={a} must be > 0")
        raise DomainError(f"{name}={a} must be > {minimum}")
    return a


def as_integer(value, minimum: int, name: str) -> int:
    """Validate an integer parameter >= minimum and return it as an int."""
    if type(value) is int and value >= minimum:
        return value
    # int() alone would truncate 2.5, and raise a bare OverflowError or
    # ValueError at inf or nan
    v = float(value)
    if not (v.is_integer() and v >= minimum):
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value}")
    return int(v)


def gamma_fn(x: float) -> float:
    """Euler gamma function on the reals, poles at the nonpositive integers."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("gamma argument must be finite")
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x}")
    try:
        return math.gamma(x)
    except (ValueError, OverflowError) as exc:  # pragma: no cover - huge args
        raise DomainError(f"gamma overflow/domain at x={x}") from exc


def digamma(x: float) -> float:
    """psi(x) by upward recurrence to x >= 10, then the asymptotic series.

    Absolute error <= 1e-13 on (0, 100]; negative non-integer arguments are
    reached through the same recurrence.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("digamma argument must be finite")
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma pole at x={x}")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    s = math.log(x) - 0.5 / x
    p = inv2
    for k, b in enumerate(_B2K, start=1):
        s -= b * p / (2 * k)
        p *= inv2
    return acc + s


def polygamma(m: int, x: float) -> float:
    """psi^(m)(x) = (-1)^(m+1) m! * zeta(m+1, x) for m >= 1."""
    if m < 1 or m != int(m):
        raise DomainError(f"polygamma order m={m} must be a positive integer")
    m = int(m)
    x = float(x)
    if _is_nonpositive_integer(x):
        raise PoleError(f"polygamma pole at x={x}")
    acc = 0.0
    sign = -1.0 if m % 2 == 0 else 1.0  # (-1)^(m+1)
    while x < 1.0:
        # psi^(m)(x) = psi^(m)(x+1) + (-1)^(m+1) m!/x^(m+1)
        acc += sign * math.factorial(m) * x ** (-(m + 1))
        x += 1.0
    return acc + sign * math.factorial(m) * hurwitz_zeta(m + 1, x)


@lru_cache(maxsize=None)
def riemann_zeta(s: int) -> float:
    """zeta(s) for integer s >= 2: table through 20, direct summation beyond."""
    if s < 2 or s != int(s):
        raise DomainError(f"riemann_zeta requires integer s >= 2, got {s}")
    s = int(s)
    if s in _ZETA_TABLE:
        return _ZETA_TABLE[s]
    acc = 0.0
    for n in range(40, 0, -1):  # s >= 21: term 41 is below 1e-33
        acc += float(n) ** (-s)
    return acc


@lru_cache(maxsize=None)
def _zeta_plan(s: int) -> tuple[float, int]:
    """(q0, M) for hurwitz_zeta at an integer s >= 2: shift q up to q0, then
    take M Euler-Maclaurin corrections.

    After M corrections at q the remainder is at most 2 |B_(2M+2)|/(2M+2)!
    (s)_(2M+1) q^(-s-2M-1) (DLMF 2.10.1: the periodic Bernoulli function
    stays within |B_2m| of B_2m, and the derivatives of t^-s keep one sign),
    and the value is at least q^(1-s)/(s-1), so the relative remainder is at
    most 2 |B_(2M+2)|/(2M+2)! (s)_(2M+1) (s-1) q^(-2M-2).  q0 is max(10, s)
    and M the fewest corrections, at most 14 (the last Bernoulli number in
    the table is B_30), that bring this below 2^-55 there; where 14 are too
    few, q0 grows until they suffice.
    """
    def rel(m: int, q: float) -> float:
        poch = math.prod(range(s, s + 2 * m + 1))
        return 2.0 * abs(_B2K_OVER_FACT[m + 1]) * poch * (s - 1) / q ** (2 * m + 2)

    q0 = max(10.0, float(s))
    for m in range(1, 15):
        if rel(m, q0) <= 2.0**-55:
            return q0, m
    return float(math.ceil(q0 * (rel(14, q0) / 2.0**-55) ** (1.0 / 30.0))), 14


def hurwitz_zeta(s: int, q: float) -> float:
    """zeta(s, q) for integer s >= 2, q > 0.

    Shifts q upward by the defining recurrence, then applies Euler-Maclaurin
    with Bernoulli corrections; _zeta_plan picks the shift target and the
    number of corrections so that the remainder is below 2^-55 of the value.
    """
    if s < 2 or s != int(s):
        raise DomainError(f"hurwitz_zeta requires integer s >= 2, got {s}")
    s = int(s)
    q = float(q)
    if not q > 0.0:
        raise DomainError(f"hurwitz_zeta requires q > 0, got {q}")
    acc = 0.0
    target, corrections = _zeta_plan(s)
    while q < target:
        acc += q ** (-s)
        q += 1.0
    em = q ** (1 - s) / (s - 1) + 0.5 * q ** (-s)
    term = s * q ** (-s - 1)  # (s)_(2k-1) q^(-s-2k+1)
    for k in range(1, corrections + 1):
        em += _B2K_OVER_FACT[k] * term
        term *= (s + 2 * k - 1) * (s + 2 * k) / (q * q)
    return acc + em


def alt_zeta(s: int) -> float:
    """Alternating zeta: (1 - 2^(1-s)) zeta(s) for s >= 2, ln 2 at s = 1."""
    if s < 1 or s != int(s):
        raise DomainError(f"alt_zeta requires integer s >= 1, got {s}")
    s = int(s)
    if s == 1:
        return LN2
    return (1.0 - 2.0 ** (1 - s)) * riemann_zeta(s)


def alternating_sum(abs_term, n_terms: int = 36) -> float:
    """sum_{k>=0} (-1)^k abs_term(k) by CVZ Chebyshev acceleration.

    Certified geometric convergence ~5.83^-n for totally monotone magnitudes.
    """
    d = (3.0 + math.sqrt(8.0)) ** n_terms
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n_terms):
        c = b - c
        s += c * abs_term(k)
        b *= (k + n_terms) * (k - n_terms) / ((k + 0.5) * (k + 1.0))
    return s / d


def alt_hurwitz_zeta(s: int, a: float) -> float:
    """sum_{n>=1} (-1)^(n-1)/(n+a)^s for integer s >= 1, a > -1.

    Always evaluated through alternating-series acceleration; naive
    truncation converges like 1/N at s = 1 and is never used.
    """
    if s < 1 or s != int(s):
        raise DomainError(f"alt_hurwitz_zeta requires integer s >= 1, got {s}")
    s = int(s)
    a = float(a)
    if not a > -1.0:
        raise DomainError(f"alt_hurwitz_zeta requires a > -1, got {a}")
    if a == 0.0:
        return alt_zeta(s)
    return alternating_sum(lambda k: (k + 1.0 + a) ** (-s))


def _zeta_nonpositive(j: int) -> float:
    # zeta(0) = -1/2; zeta(-n) = -B_{n+1}/(n+1), zero at negative evens.
    if j == 0:
        return -0.5
    n = -j
    if n + 1 >= len(_BERNOULLI):
        return 0.0
    return -_BERNOULLI[n + 1] / (n + 1)


def _polylog_from_u(m: int, u: float) -> float:
    # Expansion of Li_m(e^-u), valid for 0 < u < 2*pi; used when e^-u > 3/4.
    h = sum(1.0 / i for i in range(1, m))
    acc = (-u) ** (m - 1) / math.factorial(m - 1) * (h - math.log(u))
    term = 1.0
    for k in range(0, m + 30):
        if k != m - 1:
            j = m - k
            z = riemann_zeta(j) if j >= 2 else _zeta_nonpositive(j)
            acc += z * term
        term *= -u / (k + 1.0)
    return acc


def polylog(m: int, x: float) -> float:
    """Li_m(x) on [-1, 1), plus x = 1 when m >= 2; Li_1(x) = -ln(1-x)."""
    if m < 1 or m != int(m):
        raise DomainError(f"polylog requires integer order m >= 1, got {m}")
    m = int(m)
    x = float(x)
    if x < -1.0 or x > 1.0 or (x == 1.0 and m == 1):
        raise DomainError(f"polylog domain is [-1,1) (x=1 only for m>=2); got x={x}")
    if m == 1:
        return -math.log1p(-x)
    if x == 1.0:
        return riemann_zeta(m)
    if x == -1.0:
        return -alt_zeta(m)
    if x == 0.0:
        return 0.0
    if x > 0.75:
        return _polylog_from_u(m, -math.log(x))
    if x < -0.75:
        # square relation keeps both recursive arguments well inside range
        return 2.0 ** (1 - m) * polylog(m, x * x) - polylog(m, -x)
    acc = 0.0
    xn = 1.0
    for n in range(1, 10_000):
        xn *= x
        t = xn / float(n) ** m
        acc += t
        if abs(t) <= 1e-18 * (abs(acc) + 1e-300):
            return acc
    raise ConvergenceError(f"polylog series did not converge at x={x}")  # pragma: no cover


def least_count(fits: Callable[[int], bool], cap: int) -> int:
    """The least n in [1, cap] with fits(n), by bisection, for a test that
    stays true once it holds; cap itself when even cap does not fit."""
    if not fits(cap):
        return cap
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


_PARAM_POLYLOG_MAX_TERMS = 200_000
_PARAM_POLYLOG_NEWTON_STEPS = 16


def _param_polylog_terms(s: int, a: float, x: float) -> int:
    # For a > -1 the magnitudes r^n/(n+a)^s, r = |x|, fall with n, so the rest
    # after N terms is at most r^(N+1)/((N+1+a)^s (1-r)), and |sum| is at
    # least the first term, less the second when the signs alternate.  N is
    # the least count whose rest is at most 2^-60 of that, tested in logs:
    # the least integer n >= 1 where e(n) = (n+1) ln r - s ln(n+1+a) - log_floor
    # is <= 0.  e is convex and decreasing, so from a point n where e(n) > 0 a
    # Newton step lands below the root, and the line through e(n) with slope
    # ln r (ln(n+1+a) held at its value at n) meets zero above it.  Newton
    # steps from n = 1, one logarithm each, close that bracket until it holds
    # one integer; a bisection settles a bracket that rounding stalls, or one
    # still open after _PARAM_POLYLOG_NEWTON_STEPS steps.
    r = abs(x)
    log_r = math.log(r)
    log_floor = log_r - s * math.log1p(a) - 60.0 * LN2 + math.log1p(-r)
    if x < 0.0:
        log_floor += math.log1p(-r * ((1.0 + a) / (2.0 + a)) ** s)
    n, log_n = 1.0, math.log(2.0 + a)
    for _ in range(_PARAM_POLYLOG_NEWTON_STEPS):
        excess = (n + 1.0) * log_r - s * log_n - log_floor
        if excess <= 0.0:  # n = 1 fits, or rounding put n on the root
            n_max = max(1, math.ceil(n))
            break
        low = n + excess / (s / (n + 1.0 + a) - log_r)
        n_max = math.ceil(n - excess / log_r)
        if math.ceil(low) == n_max or low >= _PARAM_POLYLOG_MAX_TERMS:
            break
        n, log_n = low, math.log(low + 1.0 + a)
    else:
        n_max = least_count(
            lambda n: (n + 1) * log_r - s * math.log(n + 1 + a) <= log_floor, n_max)
    if n_max >= _PARAM_POLYLOG_MAX_TERMS:
        raise ConvergenceError(f"param_polylog series too slow at x={x}")
    return n_max


def param_polylog(s: int, a: float, x: float) -> float:
    """Li_s(a, x) = sum x^n/(n+a)^s; geometric for |x| < 1, endpoints special.

    For a > -1 and |x| < 1 the term count is fixed first, from the rest bound
    of _param_polylog_terms (below 2^-60 of |sum|), and the terms are summed
    with math.fsum, so the value keeps full double precision.  For a < -1
    (terms near the pole n = -a) it sums until the terms are negligible,
    also with math.fsum.
    """
    if s < 1 or s != int(s):
        raise DomainError(f"param_polylog requires integer s >= 1, got {s}")
    s = int(s)
    a = as_shift(a)
    x = float(x)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        if s < 2:
            raise DomainError("param_polylog at x=1 requires s >= 2")
        if not a > -1.0:
            raise DomainError(f"param_polylog at x=1 requires a > -1, got {a}")
        return hurwitz_zeta(s, a + 1.0)
    if x == -1.0:
        if not a > -1.0:
            raise DomainError(f"param_polylog at x=-1 requires a > -1, got {a}")
        return -alt_hurwitz_zeta(s, a)
    if not -1.0 < x < 1.0:
        raise DomainError(f"param_polylog requires x in [-1, 1], got {x}")
    if a > -1.0:
        terms = []
        xn = 1.0
        for n in range(1, _param_polylog_terms(s, a, x) + 1):
            xn *= x
            terms.append(xn / (n + a) ** s)
        return math.fsum(terms)
    terms = []
    acc = 0.0
    xn = 1.0
    for n in range(1, _PARAM_POLYLOG_MAX_TERMS):
        xn *= x
        terms.append(xn / (n + a) ** s)
        acc += terms[-1]
        if abs(xn) <= 1e-18 * (abs(acc) + 1e-300):
            return math.fsum(terms)
    raise ConvergenceError(f"param_polylog series too slow at x={x}")


def h_func(s: int, a: float, x: float) -> float:
    """H_s(x, a) = x^a * Li_s(a, x) = sum x^(n+a)/(n+a)^s.

    For x < 0 the prefactor x^a is real only for integer a; other shifts are
    rejected rather than given a complex branch.
    """
    if s < 1 or s != int(s):
        raise DomainError(f"h_func requires integer s >= 1, got {s}")
    a = as_shift(a)
    x = float(x)
    if x == 0.0:
        return 0.0
    if x < 0.0 and not float(a).is_integer():
        raise DomainError(f"h_func undefined for x < 0 with non-integer a={a}")
    if x == 1.0 and s < 2:
        raise DomainError("h_func at x=1 requires s >= 2")
    return x ** a * param_polylog(int(s), a, x)
