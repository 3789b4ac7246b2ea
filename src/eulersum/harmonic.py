"""Finite and shifted harmonic numbers, Stirling numbers, and the log-power
moment recurrence Y_m(a)."""
from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError, PoleError
from .specfun import EULER_GAMMA, as_shift, digamma, hurwitz_zeta, riemann_zeta

_STIRLING_MAX_N = 64
_Y_MAX_M = 8


def harmonic_num(n: int, s: int = 1) -> float:
    """H_n^(s) = sum_{j<=n} j^-s, with H_0 = 0."""
    if n < 0:
        raise DomainError(f"harmonic_num requires n >= 0, got {n}")
    if s < 1:
        raise DomainError(f"harmonic_num requires s >= 1, got {s}")
    return sum(float(j) ** (-s) for j in range(int(n), 0, -1))


def alt_harmonic_num(n: int, s: int = 1) -> float:
    """Alternating H-bar_n^(s) = sum_{j<=n} (-1)^(j-1) j^-s."""
    if n < 0:
        raise DomainError(f"alt_harmonic_num requires n >= 0, got {n}")
    if s < 1:
        raise DomainError(f"alt_harmonic_num requires s >= 1, got {s}")
    acc = 0.0
    for j in range(int(n), 0, -1):
        acc += (1.0 if j % 2 else -1.0) * float(j) ** (-s)
    return acc


def param_harmonic(n: int, s: int, a: float) -> float:
    """H_n^(s)(a) = sum_{j<=n} (j+a)^-s; pole when some j + a vanishes."""
    if n < 0:
        raise DomainError(f"param_harmonic requires n >= 0, got {n}")
    if s < 1:
        raise DomainError(f"param_harmonic requires s >= 1, got {s}")
    a = float(a)
    acc = 0.0
    for j in range(int(n), 0, -1):  # smallest terms first
        d = j + a
        if d == 0.0:
            raise PoleError(f"param_harmonic pole: j + a = 0 at j={j}")
        acc += d ** (-s)
    return acc


def nested_harmonic_sum(k: int, m: int, a: float = 0.0, alternating: bool = False) -> float:
    """sum_{i<k} e_i h_i/(i+a)^m with h_i = sum_{j<=i} e_j/(j+a), in one pass.

    e_j is 1, or (-1)^(j-1) when alternating, so h_i is param_harmonic(i, 1, a),
    or alt_harmonic_num(i) when alternating at a = 0.  O(k) work, where the
    same sum over those functions is O(k^2).  A pole raises when some i + a
    vanishes.
    """
    if m < 1 or m != int(m):
        raise DomainError(f"nested_harmonic_sum requires integer m >= 1, got {m}")
    m = int(m)
    a = float(a)
    acc = h = 0.0
    sign = 1.0
    for i in range(1, int(k)):
        d = i + a
        if d == 0.0:
            raise PoleError(f"nested_harmonic_sum pole: i + a = 0 at i={i}")
        h += sign / d
        acc += sign * h / d**m
        if alternating:
            sign = -sign
    return acc


def shifted_harmonic(alpha: float, m: int = 1) -> float:
    """H_alpha^(m) for real alpha > -1.

    m = 1 goes through psi(alpha+1) + gamma, m >= 2 through
    zeta(m) - zeta(m, alpha+1); both agree with the finite sum at integers.
    """
    alpha = float(alpha)
    if not alpha > -1.0:
        raise DomainError(f"shifted_harmonic requires alpha > -1, got {alpha}")
    if m < 1 or m != int(m):
        raise DomainError(f"shifted_harmonic requires integer m >= 1, got {m}")
    m = int(m)
    if m == 1:
        return digamma(alpha + 1.0) + EULER_GAMMA
    return riemann_zeta(m) - hurwitz_zeta(m, alpha + 1.0)


@lru_cache(maxsize=None)
def _stirling_row(n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    prev = _stirling_row(n - 1)
    row = [0] * (n + 1)
    for k in range(1, n + 1):
        left = prev[k - 1] if k - 1 <= n - 1 else 0
        right = prev[k] if k <= n - 1 else 0
        row[k] = left + (n - 1) * right
    return tuple(row)


def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind, exact integer arithmetic."""
    if n < 0 or n > _STIRLING_MAX_N or k < 0 or k > n:
        raise DomainError(f"stirling1 requires 0 <= k <= n <= {_STIRLING_MAX_N}")
    return _stirling_row(int(n))[int(k)]


def y_moment(m: int, a: float) -> float:
    """Y_m(a) via Y_m = (m-1)! sum_{i<m} Y_i H_a^(m-i) / i!, Y_0 = 1.

    Equals (-1)^m * a * integral_0^1 x^(a-1) ln^m(1-x) dx for a > 0.
    """
    if m < 0 or m != int(m) or m > _Y_MAX_M:
        raise DomainError(f"y_moment requires integer 0 <= m <= {_Y_MAX_M}")
    a = as_shift(a, minimum=0.0)
    m = int(m)
    h = [math.nan] + [shifted_harmonic(a, j) for j in range(1, m + 1)]  # each H_a^(j) once
    ys = [1.0]
    for mm in range(1, m + 1):
        acc = 0.0
        for i in range(mm):
            acc += ys[i] / math.factorial(i) * h[mm - i]
        ys.append(math.factorial(mm - 1) * acc)
    return ys[m]
