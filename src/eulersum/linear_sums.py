"""Closed-form evaluators for linear, quadratic and cubic harmonic-number sums
over shifted and window denominators, plus the generating-function and moment
identities they rest on.

The closed forms are finite expressions in special-function values (zeta,
Hurwitz zeta, polylogarithms, shifted harmonic numbers) plus sums over the
window width k; none truncates the series it evaluates.  Each kernel
evaluates each of those constants once per call, however often its formula
names it.  Every window sum is
O(k) float work: the nested sum sum_{i<k} H_i(a)/(i+a)^m is one running pass
(harmonic.nested_harmonic_sum), and the Y_2 / Y_3 windows seed H_a, H_a^(2),
H_a^(3) once and step them with H_(x+1)^(s) = H_x^(s) + (x+1)^-s instead of
calling the special functions at every a+i.  sum H_(n+c)/n^2 comes from a
recurrence in c and an asymptotic expansion, in a fixed number of operations.

The alternating sums (Flajolet and Salvy 1998) use the same kernels with eta
in place of zeta: sum_recip_shift, polylog_moment, sum_H1_bilinear (and
wsums.w_1_p) take ``alternating=True``.  alt_sum_H1_power and
alt_sum_Hm_window keep formulas of their own, which mix zeta and eta terms.

Two kinds of direct series remain.  gf_lhs sums the left sides of all eight
generating-function and moment identities to the caller's target; the
catalog uses them as oracles.  The moment kinds' left sides (eq1.19, eq1.23)
are integrals of H_m(t, a) t^(c-1) and Li_m(t) t^(c-1), summed term by term
as one positive series.  Each fixes its term count before it sums, as the
least N whose tail bound (geometric in x, from a bound on the coefficients,
or for the moment kinds also a power law in N) is at most target/2, and
reports that tail plus a roundoff bound.  Among the right sides (gf_rhs),
only eq1.30's (GfKind.HN_HM) is a series: its display keeps sum H_n x^n/n^m
and the log remainders r_n, summed in O(n) terms.  Every other right side is
finite in polylogarithms, and none uses quadrature or a left-side sum.

Conventions: ``zeta_shift(s, a)`` below always means zeta(s, a+1), i.e. the
series sum_{n>=1} (n+a)^-s; zbar(s, a) is its alternating twin
sum_{n>=1} (-1)^(n-1) (n+a)^-s; H_a = psi(a+1) + gamma is the shifted
harmonic number.
"""
from __future__ import annotations

import enum
import math
import operator
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConvergenceError, DomainError
from .harmonic import nested_harmonic_sum, param_harmonic, shifted_harmonic
from .specfun import (
    LN2,
    _BERNOULLI,
    alt_hurwitz_zeta,
    alt_zeta,
    as_integer,
    as_shift,
    hurwitz_zeta,
    least_count,
    param_polylog,
    polylog,
    riemann_zeta,
)


def _zeta_shift(s: int, a: float) -> float:
    return hurwitz_zeta(s, a + 1.0)


# Plain and alternating sums, sum (+-1)^(n-1) t_n with the sign taken when
# alternating, share each kernel below through four constants of the family:
#   L(s)      = sum (+-1)^(n-1)/n^s: zeta(s), or eta(s) with eta(1) = ln 2;
#   L(s, a)   = sum (+-1)^(n-1)/(n+a)^s: zeta(s, a+1), or zbar(s, a);
#   R(a)      = sum (+-1)^(n-1) (1/n - 1/(n+a)): H_a, or ln 2 - zbar(1, a);
#   F(x), the bilinear potential: sum h_n/((n+a)(n+b)) = (F(b) - F(a))/(b - a)
#             with h_n = H_n, or H-bar_n = sum_{j<=n} (-1)^(j-1)/j.
# A kernel takes the values L(j, a) it reads from one table (_shift_table),
# with R(a), so each is evaluated once per call however often the formula
# names it.  F comes as a tuple of terms, and (F(b) - F(a))/(b - a) is summed
# term by term: each term's difference is small when a is near b, where F is
# not.
def _shift_table(a: float, top: int, alternating: bool) -> tuple[list[float], float]:
    """L(j, a) at index j, for j = 2..top (from j = 1 when alternating), and R(a)."""
    if alternating:
        table = [math.nan] + [alt_hurwitz_zeta(j, a) for j in range(1, top + 1)]
        return table, LN2 - table[1]
    return [math.nan] * 2 + [_zeta_shift(j, a) for j in range(2, top + 1)], shifted_harmonic(a)


def _potential(x: float, h: float, z2: float, zb1: float | None) -> tuple[float, ...]:
    """F(x) from H_x, zeta(2, x+1) and, for the alternating family, zbar(1, x)."""
    if zb1 is None:
        # (H_x^2 - zeta(2, x+1))/2 - H_x/x
        return -h / x, 0.5 * h**2, -0.5 * z2
    # (2 ln 2 H_x - zbar(1, x)^2 + zeta(2, x+1))/2 - R(x)/x, with R(x)/x as
    # ln 2/x - zbar(1, x)/x: at the tiniest shifts those overflow, and the nan
    # they leave is reported as out of double-precision range, where R(x)/x
    # would cancel to a finite wrong value
    return -LN2 / x, zb1 / x, LN2 * h, -0.5 * zb1**2, 0.5 * z2


def _nonnegative_shift(a: float, name: str) -> float:
    a = as_shift(a)
    if a < 0.0:
        raise DomainError(f"{name} requires a >= 0, got {a}")
    return a


def _recip_shift(a: float, s: int, table: list[float], regular: float) -> float:
    # R(a)/a^s - sum_{j=2..s} L(j, a)/a^(s+1-j) for a > 0
    try:
        tail = sum(table[j] / a ** (s + 1 - j) for j in range(2, s + 1))
        return regular / a**s - tail
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"sum_recip_shift: parameters outside double-precision range "
                          f"({type(exc).__name__}: {exc})") from exc


def sum_recip_shift(a: float, s: int, *, alternating: bool = False) -> float:
    """sum (+-1)^(n-1)/(n (n+a)^s) for a >= 0, s >= 1, signed when alternating.

    Partial fractions give R(a)/a^s - sum_{j=2..s} L(j, a)/a^(s+1-j); at a = 0
    the sum is L(s+1).  Raises DomainError where a power of a overflows or
    underflows to 0.
    """
    a = _nonnegative_shift(a, "sum_recip_shift")
    s = as_integer(s, 1, "sum_recip_shift order s")
    if a == 0.0:
        return (alt_zeta if alternating else riemann_zeta)(s + 1)
    return _recip_shift(a, s, *_shift_table(a, s, alternating))


def _power(a: float, s: int, z: list[float], h: float) -> float:
    # sum_H1_power from z[j] = zeta(j, a+1), j = 2..s+1, and H_a
    out = 0.5 * s * z[s + 1]
    out -= 0.5 * sum(z[s - j] * z[j + 1] for j in range(1, s - 1))
    out += z[s] * h
    return out + _recip_shift(a, s, z, h)


def sum_H1_power(a: float, s: int) -> float:
    """sum H_n/(n+a)^s for a > 0, s >= 2."""
    a = as_shift(a, minimum=0.0)
    s = as_integer(s, 2, "sum_H1_power order s")
    return _power(a, s, *_shift_table(a, s + 1, False))


def _alt_power(a: float, s: int, z_s: float, z_s1: float, zb: list[float]) -> float:
    # alt_sum_H1_power from zeta(s, a+1), zeta(s+1, a+1) and zb[j] = zbar(j, a),
    # j = 1..s
    out = 0.5 * sum(zb[s - j] * zb[j + 1] for j in range(1, s - 1))
    out -= 0.5 * s * z_s1
    out += z_s * LN2
    out += zb[s] * zb[1]
    return out + (alt_zeta(s + 1) if a == 0.0 else _recip_shift(a, s, zb, LN2 - zb[1]))


def alt_sum_H1_power(a: float, s: int) -> float:
    """sum H-bar_n/(n+a)^s for a >= 0, s >= 2.

    Not sum_H1_power with the alternating constants: the numerator alone
    alternates, so plain zeta(s, a+1) and zeta(s+1, a+1) terms stand beside
    the zbar products, and the quadratic and s/2 terms change sign.
    """
    a = _nonnegative_shift(a, "alt_sum_H1_power")
    s = as_integer(s, 2, "alt_sum_H1_power order s")
    zb, _ = _shift_table(a, s, True)
    return _alt_power(a, s, _zeta_shift(s, a), _zeta_shift(s + 1, a), zb)


def _moment(a: float, m: int, regular: float, alternating: bool) -> float:
    zeta = alt_zeta if alternating else riemann_zeta
    out = sum((-1.0) ** (l - 1) * zeta(m + 1 - l) / a**l for l in range(1, m))
    return out + (-1.0) ** (m - 1) * regular / a**m


def polylog_moment(m: int, a: float, *, alternating: bool = False) -> float:
    """sum (+-1)^(n-1)/(n^m (n+a)) for a > 0, m >= 1, signed when alternating.

    Partial fractions give sum_{l<m} (-1)^(l-1) L(m+1-l)/a^l
    + (-1)^(m-1) R(a)/a^m.  The plain sum is the x^(a-1) moment of Li_m over
    (0,1).
    """
    a = as_shift(a, minimum=0.0)
    m = as_integer(m, 1, "polylog_moment order m")
    regular = LN2 - alt_hurwitz_zeta(1, a) if alternating else shifted_harmonic(a)
    return _moment(a, m, regular, alternating)


def _bilinear_as_printed(a: float, b: float) -> float:
    # eq2.9 as printed: the middle term reads (H_a^2 - H_b^2)/(2(b-a))
    ha, hb = shifted_harmonic(a), shifted_harmonic(b)
    return ((ha / a - hb / b) / (b - a) + (ha**2 - hb**2) / (2.0 * (b - a))
            + (_zeta_shift(2, a) - _zeta_shift(2, b)) / (2.0 * (b - a)))


def _alt_bilinear_as_printed(a: float, b: float) -> float:
    # eq4.2 as printed: a nested 1/2 on the zbar(1, a)^2 term
    za, zb = alt_hurwitz_zeta(1, a), alt_hurwitz_zeta(1, b)
    out = LN2 / (a * b) - za / (a * (b - a)) + zb / (b * (b - a))
    out += LN2 * (shifted_harmonic(b) - shifted_harmonic(a)) / (b - a)
    out += (zb**2 - 0.5 * za**2) / (2.0 * (a - b))
    return out + (_zeta_shift(2, a) - _zeta_shift(2, b)) / (2.0 * (a - b))


def sum_H1_bilinear(a: float, b: float, *, alternating: bool = False,
                    as_printed: bool = False) -> float:
    """sum H_n/((n+a)(n+b)) = (F(b) - F(a))/(b - a) for distinct a, b > 0,
    with H-bar_n in place of H_n when alternating.

    The as-printed variants, eq2.9's flipped middle term (H_a^2 - H_b^2) and
    eq4.2's nested 1/2 on one squared zbar term, are retained only so the
    verifier can document their refutation.
    """
    a = as_shift(a, minimum=0.0, name="a")
    b = as_shift(b, minimum=0.0, name="b")
    if a == b:
        raise DomainError("sum_H1_bilinear requires a != b")
    if as_printed:
        return (_alt_bilinear_as_printed if alternating else _bilinear_as_printed)(a, b)

    def potential(x):
        zb1 = alt_hurwitz_zeta(1, x) if alternating else None
        return _potential(x, shifted_harmonic(x), _zeta_shift(2, x), zb1)

    d = b - a
    return sum([(fb - fa) / d for fa, fb in zip(potential(a), potential(b))])


def _require_integer_shift(a: float) -> float:
    a = float(a)
    if not a.is_integer():
        raise DomainError(
            f"alternating window sums require integer a (got {a}): the closed "
            "form's (-1)^(2a) factor has no real branch for non-integer shifts"
        )
    if a < 0:
        raise DomainError(f"integer shift a={a} must be >= 0")
    return a


def _window_guard(a: float, k: int, m: int = 1, *,
                  alternating: bool = False) -> tuple[float, int, int]:
    # a, k and the numerator order m of a window sum over (n+a)(n+a+k); the
    # plain windows take any a > 0, the alternating ones an integer a >= 0
    k = as_integer(k, 1, "window width k")
    m = as_integer(m, 1, "numerator order m")
    if alternating:
        return _require_integer_shift(a), k, m
    a = as_shift(a)
    if not a > 0:
        raise DomainError(f"window sums require a > 0, got a={a}")
    return a, k, m


def sum_Hm_window(a: float, k: int, m: int) -> float:
    """sum H_n^(m)/((n+a)(n+a+k)) for a > 0, k >= 1, m >= 1."""
    a, k, m = _window_guard(a, k, m)
    return _hm_window(a, k, m, shifted_harmonic(a))


def _hm_window(a: float, k: int, m: int, h1: float) -> float:
    # sum_Hm_window from the seed h1 = H_a, which its moment term shares
    br = _moment(a, m, h1, False)
    br += sum(
        (-1.0) ** (j - 1) * riemann_zeta(m + 1 - j) * param_harmonic(k - 1, j, a)
        for j in range(1, m)
    )
    sgn = (-1.0) ** (m - 1)
    br += sgn * h1 * param_harmonic(k - 1, m, a)
    br += sgn * nested_harmonic_sum(k, m, a)
    return br / k


def alt_sum_Hm_window(a: float, k: int, m: int) -> float:
    """sum H-bar_n^(m)/((n+a)(n+a+k)) for integer a >= 0, k >= 1, m >= 1, in O(k).

    For non-integer a the printed closed form carries a complex (-1)^(2a)
    factor with no branch convention given, so it refuses rather than guess.
    """
    a, k, m = _window_guard(a, k, m, alternating=True)
    zb1 = alt_hurwitz_zeta(1, a)
    br = alt_zeta(m + 1) if a == 0.0 else _moment(a, m, LN2 - zb1, True)
    sgn = (-1.0) ** (m - 1)
    br += sgn * LN2 * param_harmonic(k - 1, m, a)
    br += sgn * zb1 * sum((-1.0) ** (i - 1) / (i + a) ** m for i in range(1, k))
    br -= sgn * nested_harmonic_sum(k, m, a, alternating=True)
    br += sum(
        (-1.0) ** (j - 1) * alt_zeta(m + 1 - j) * param_harmonic(k - 1, j, a)
        for j in range(1, m)
    )
    return br / k


def _y_window(a: float, k: int, order: int, h1: float, h2: float, h3: float = 0.0) -> float:
    """sum_{i<k} Y_order(a+i)/(a+i) for order 2 or 3, in O(k).

    Y_2 = H^2 + H^(2) and Y_3 = H^3 + 3 H H^(2) + 2 H^(3), all at a+i; each
    H^(s) starts from the caller's seed H_a^(s) (h3 only for order 3) and
    steps by H_(x+1)^(s) = H_x^(s) + (x+1)^-s.
    """
    acc = 0.0
    for i in range(k):
        y = h1 * h1 + h2 if order == 2 else h1 * (h1 * h1 + 3.0 * h2) + 2.0 * h3
        acc += y / (a + i)
        r = 1.0 / (a + (i + 1))
        h1 += r
        h2 += r * r
        h3 += r * r * r
    return acc


def sum_sq_diff_window(a: float, k: int) -> float:
    """sum (H_n^2 - H_n^(2))/((n+a)(n+a+k)) = (1/k) sum_j Y_2(a+j-1)/(a+j-1)."""
    a, k, _ = _window_guard(a, k)
    return _y_window(a, k, 2, shifted_harmonic(a), shifted_harmonic(a, 2)) / k


def sum_H1sq_window(a: float, k: int) -> float:
    """sum H_n^2/((n+a)(n+a+k)) for a > 0, k >= 1."""
    a, k, _ = _window_guard(a, k)
    h1 = shifted_harmonic(a)
    br = riemann_zeta(2) * param_harmonic(k, 1, a - 1.0)
    br -= h1 * param_harmonic(k, 2, a - 1.0)
    br -= nested_harmonic_sum(k, 2, a)
    br += _y_window(a, k, 2, h1, shifted_harmonic(a, 2))
    return br / k


@lru_cache(maxsize=4096)
def sum_shiftedH_over_nsq(c: float, n_terms: int = 16) -> float:
    """S(c) = sum H_(n+c)/n^2 for real c >= 0, relative error below 1e-15.

    With J = n_terms (default 16), c < J is first shifted up by
    S(c) = S(c+1) - polylog_moment(2, c+1).  For c >= J, H_(n+c) = H_c +
    sum_{j<=n} 1/(c+j) gives S(c) = zeta(2) H_c + sum_j psi'(j)/(c+j).  Terms
    j <= J are summed exactly with psi'(j) = zeta(2) - H_(j-1)^(2); for j > J,
    psi'(j) ~ 1/j + 1/(2j^2) + sum_{k<=6} B_2k/j^(2k+1) turns the rest into
    polylog moments minus their first J terms.  The first omitted term,
    B_14/j^15, is below 1e-18 at j = 17.  The work is O(J) whatever c is.
    Against a 25-digit integral representation the relative error is at most
    7e-16 for c in [0.05, 10^6 + 0.5].
    """
    c = float(c)
    if not 0.0 <= c < math.inf:
        raise DomainError(f"sum_shiftedH_over_nsq requires finite c >= 0, got {c}")
    if c == 0.0:
        return 2.0 * riemann_zeta(3)
    big_j = int(n_terms)
    if big_j < 1:
        raise DomainError(f"sum_shiftedH_over_nsq requires n_terms >= 1, got {n_terms}")
    # H_c is evaluated once per c: each polylog moment at c is built on it
    shift, h = 0.0, None
    while c < big_j:
        c += 1.0
        h = shifted_harmonic(c)
        shift -= _moment(c, 2, h, False)
    if h is None:
        h = shifted_harmonic(c)
    z2 = riemann_zeta(2)
    out = z2 * h
    trigamma = z2  # psi'(j) = zeta(2) - H_(j-1)^(2)
    for j in range(1, big_j + 1):
        out += trigamma / (c + j)
        trigamma -= 1.0 / (j * j)
    # j > J: each asymptotic piece b_p / j^p summed as b_p sum_{j>J} 1/(j^p (c+j))
    pieces = [(1, 1.0), (2, 0.5)] + [(2 * k + 1, _BERNOULLI[2 * k]) for k in range(1, 7)]
    for p, b in pieces:
        head = sum(1.0 / (j**p * (c + j)) for j in range(big_j, 0, -1))
        out += b * (_moment(c, p, h, False) - head)
    return out + shift


def sum_H1H2_window(a: float, k: int) -> float:
    """sum H_n H_n^(2)/((n+a)(n+a+k)) for a > 0, k >= 1."""
    a, k, _ = _window_guard(a, k)
    return _h1h2_window(a, k, shifted_harmonic(a), shifted_harmonic(a, 2))


def _h1h2_window(a: float, k: int, h: float, h2: float) -> float:
    # sum_H1H2_window from the seeds h = H_a and h2 = H_a^(2), its i = 0 terms
    br = 0.0
    for i in range(k):
        al = a + i
        if i:
            h, h2 = shifted_harmonic(al), shifted_harmonic(al, 2)
        br += sum_shiftedH_over_nsq(al) / al
        br -= (h**2 + h2) / (2.0 * al**2)
        br += h / al**3
    br -= riemann_zeta(2) * param_harmonic(k, 2, a - 1.0)
    return br / k


def cubic_stirling_window(a: float, k: int) -> float:
    """sum (H_n^3 - 3 H_n H_n^(2) + 2 H_n^(3))/((n+a)(n+a+k)), the Y_3 window."""
    a, k, _ = _window_guard(a, k)
    return _y_window(a, k, 3, shifted_harmonic(a), shifted_harmonic(a, 2),
                     shifted_harmonic(a, 3)) / k


def sum_H1cubed_window(a: float, k: int) -> float:
    """sum H_n^3/((n+a)(n+a+k)), assembled from the Y_3 window, the H H^(2)
    window, and the m=3 window, which share H_a, H_a^(2) and H_a^(3)."""
    a, k, _ = _window_guard(a, k)
    h1, h2, h3 = shifted_harmonic(a), shifted_harmonic(a, 2), shifted_harmonic(a, 3)
    return (
        _y_window(a, k, 3, h1, h2, h3) / k
        + 3.0 * _h1h2_window(a, k, h1, h2)
        - 2.0 * _hm_window(a, k, 3, h1)
    )


# --------------------------------------------------------------------------
# generating-function and moment identities
# --------------------------------------------------------------------------

class GfKind(str, enum.Enum):
    HN_H2 = "hn_h2"                      # sum H_n H_n^(2) x^n
    HN_HM = "hn_hm"                      # sum H_n H_n^(m) x^n
    SQ_DIFF = "sq_diff"                  # sum (H_n^2 - H_n^(2)) x^n (value kind)
    NESTED_REFLECT = "nested_reflect"    # reflection of nested double sums
    LEMMA13 = "lemma13"                  # one-variable parametric product series
    LEMMA13_TWO_VAR = "lemma13_two_var"  # two-variable parametric product series
    MOMENT_IDENT = "moment_ident"        # integral of H_m(t,a) t^(n+b-1) over (0,x)
    MOMENT_IDENT_ZERO = "moment_ident_zero"  # same with Li_m(t)


@dataclass(frozen=True)
class GfResult:
    lhs: float
    rhs: float
    work: int = 0  # terms the direct sum used

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


@dataclass(frozen=True)
class GfSum:
    """A left side summed directly: the value, the terms summed, and a bound on
    its distance from the infinite series (geometric tail plus roundoff)."""

    value: float
    work: int
    bound: float


_GF_MAX_TERMS = 60_000
_EPS = sys.float_info.epsilon


def _require_open_x(x: float, name: str = "x") -> float:
    x = float(x)
    if not -1.0 < x < 1.0:
        raise DomainError(f"{name} must lie strictly inside (-1, 1), got {x}")
    return x


def _geom_terms(x: float) -> int:
    if x == 0.0:
        return 8
    n = int(math.log(1e-19) / math.log(abs(x))) + 16
    if n > _GF_MAX_TERMS:
        raise ConvergenceError(f"series at x={x} needs {n} terms; cannot meet tolerance")
    return n


def _geom_tail(b: float, r: float, n_max: int, growth: int = 0) -> float:
    # sum_{n>N} b_n r^n for b_(N+1) <= b and b_(n+1)/b_n <= (1+1/n)^growth;
    # inf where that ratio bound does not give a convergent geometric series
    if r == 0.0:
        return 0.0
    q = r * (1.0 + 1.0 / (n_max + 1)) ** growth
    if q >= 1.0:
        return math.inf
    return b * r ** (n_max + 1) / (1.0 - q)


def _far_denominator(a: float, n_max: int) -> float:
    # min over n > n_max of |n + a|: a minimum over a shrinking set, so it
    # never decreases as n_max grows, also for a < -n_max
    lo = n_max + 1 + a
    if lo >= 0.0:
        return lo
    frac = -a - math.floor(-a)
    return min(frac, 1.0 - frac)


def _terms_for(tail: Callable[[int], float], target: float, cap: int) -> int:
    # the least N <= cap whose tail bound is at most target/2; every bound
    # below never increases with N.  cap when even cap misses (the caller's
    # bound then reports the miss)
    return least_count(lambda n: tail(n) <= 0.5 * target, cap)


def _gf_sum(value: float, n_max: int, abs_sum: float, tail: float) -> GfSum:
    # each term comes from at most three running recurrences of n steps and
    # joins a running sum, so roundoff stays below 4 n_max eps sum|t_n|
    # (Higham 2002, ch. 3), with |t_n| built from absolute values
    return GfSum(value=value, work=n_max, bound=tail + 4.0 * n_max * _EPS * abs_sum)


# left sides, summed directly: the catalog's oracles.  Each sums the count
# _terms_for picks below _geom_terms, the count where |x|^N < 1e-19, but the
# moment kinds, which search below their own geometric count.

def _lhs_lemma13_two_var(x: float, y: float, a: float, s: int, target: float) -> GfSum:
    # sum_n (y^n cx_n + x^n cy_n)/(n+a)^s, cx_n = sum_{j<n} x^(n-j)/j by recurrence
    rx, ry = abs(x), abs(y)

    def tail(n: int) -> float:
        # |cx_n| <= rx/(1-rx)
        return (_geom_tail(rx / (1.0 - rx), ry, n) + _geom_tail(ry / (1.0 - ry), rx, n)
                ) / _far_denominator(a, n) ** s

    n_max = _terms_for(tail, target, max(_geom_terms(x), _geom_terms(y)))
    acc = abs_acc = 0.0
    cx = cy = cx_abs = cy_abs = 0.0
    xn = yn = 1.0
    for n in range(1, n_max + 1):
        if n > 1:
            cx = x * (cx + 1.0 / (n - 1))
            cy = y * (cy + 1.0 / (n - 1))
            cx_abs = rx * (cx_abs + 1.0 / (n - 1))
            cy_abs = ry * (cy_abs + 1.0 / (n - 1))
        xn *= x
        yn *= y
        w = (n + a) ** s
        acc += (yn * cx + xn * cy) / w
        abs_acc += (abs(yn) * cx_abs + abs(xn) * cy_abs) / abs(w)
    return _gf_sum(acc, n_max, abs_acc, tail(n_max))


def _lhs_lemma13(x: float, a: float, s: int, target: float) -> GfSum:
    # sum_n x^n c_n/(n+a)^s, the two-variable series at y = x halved, with
    # c_n = sum_{j<n} x^(n-j)/j by the same recurrence
    r = abs(x)

    def tail(n: int) -> float:
        # |c_n| <= r/(1-r)
        return _geom_tail(r / (1.0 - r), r, n) / _far_denominator(a, n) ** s

    n_max = _terms_for(tail, target, _geom_terms(x))
    acc = abs_acc = 0.0
    c = c_abs = 0.0
    xn = 1.0
    for n in range(1, n_max + 1):
        if n > 1:
            c = x * (c + 1.0 / (n - 1))
            c_abs = r * (c_abs + 1.0 / (n - 1))
        xn *= x
        w = (n + a) ** s
        acc += xn * c / w
        abs_acc += abs(xn) * c_abs / abs(w)
    return _gf_sum(acc, n_max, abs_acc, tail(n_max))


def _lhs_harmonic(x: float, m: int, numerator, target: float) -> GfSum:
    # sum numerator(H_n, H_n^(m)) x^n for numerators in [0, (1 + ln n)^2]
    r = abs(x)

    def tail(n: int) -> float:
        # H_n <= 1 + ln n, and H_n^(m) <= zeta(2) <= 1 + ln n from n = 2 on
        return _geom_tail((1.0 + math.log(n + 1)) ** 2, r, n, growth=2)

    n_max = _terms_for(tail, target, _geom_terms(x))
    acc = abs_acc = 0.0
    h1 = hm = 0.0
    xn = 1.0
    for n in range(1, n_max + 1):
        xn *= x
        h1 += 1.0 / n
        hm += float(n) ** (-m)
        t = numerator(h1, hm) * xn
        acc += t
        abs_acc += abs(t)
    return _gf_sum(acc, n_max, abs_acc, tail(n_max))


def _lhs_hn_h2(x: float, target: float) -> GfSum:
    return _lhs_harmonic(x, 2, operator.mul, target)


def _lhs_hn_hm(x: float, m: int, target: float) -> GfSum:
    return _lhs_harmonic(x, m, operator.mul, target)


def _lhs_sq_diff(x: float, target: float) -> GfSum:
    return _lhs_harmonic(x, 2, lambda h1, h2: h1 * h1 - h2, target)


def _lhs_nested_reflect(x: float, y: float, p: int, m: int, target: float) -> GfSum:
    rx, ry = abs(x), abs(y)

    def tail(n: int) -> float:
        # each inner sum is at most -ln(1 - r)
        return _geom_tail(-math.log1p(-rx), ry, n) + _geom_tail(-math.log1p(-ry), rx, n)

    n_max = _terms_for(tail, target, max(_geom_terms(x), _geom_terms(y)))
    acc = abs_acc = 0.0
    innx = inny = innx_abs = inny_abs = 0.0
    xn = yn = 1.0
    for n in range(1, n_max + 1):
        xn *= x
        yn *= y
        # reciprocal powers underflow harmlessly where n^p would overflow
        inv_p = float(n) ** (-p)
        inv_m = float(n) ** (-m)
        innx += xn * inv_p
        inny += yn * inv_m
        innx_abs += abs(xn) * inv_p
        inny_abs += abs(yn) * inv_m
        acc += yn * innx * inv_m + xn * inny * inv_p
        abs_acc += abs(yn) * innx_abs * inv_m + abs(xn) * inny_abs * inv_p
    return _gf_sum(acc, n_max, abs_acc, tail(n_max))


_MOMENT_MAX_TERMS = 200_000  # most terms a moment left side sums


def _lhs_moment_ident(x: float, a: float, b: float, n: int, m: int, target: float) -> GfSum:
    # sum_{k>=1} x^(k+a+c)/((k+a)^m (k+a+c)) for 0 < x < 1, a >= 0, c = n + b:
    # the integral of H_m(t, a) t^(c-1) over (0, x), and at a = 0 that of
    # Li_m(t) t^(c-1), taken term by term.  The terms are positive and each is
    # at most x times the one before, so the rest after K terms is at most
    # t_(K+1)/(1-x); as k+a+c >= k+a it is also at most
    # x^(K+1+a+c)/(m (K+a)^m).  Both bounds are taken in log space.  Raises
    # ConvergenceError where the smaller one still exceeds target/2 at
    # _MOMENT_MAX_TERMS: as x -> 1 it tends to 1/(m 200000^m) there, so at
    # target 1e-10 (eq1.19's and eq1.23's oracles at tol 1e-9) m = 1 fails
    # from x ~ 0.99995, while m >= 2 certify at every double below 1; smaller
    # targets lose a region near 1 for m = 2 as well.
    c = n + b
    lx, l1x = math.log(x), math.log1p(-x)

    def log_tail(k: int) -> float:
        e = (k + 1 + a + c) * lx
        geometric = e - m * math.log(k + 1 + a) - math.log(k + 1 + a + c) - l1x
        power = e - math.log(m) - m * math.log(k + a)
        return min(geometric, power)

    # the geometric bound with its denominators (at least 6) dropped meets
    # target/2 from k0 terms on, so the count lies below ceil(k0); only the
    # cap can miss
    k0 = (math.log(0.5 * target) + l1x) / lx - 1.0 - a - c
    cap = min(_MOMENT_MAX_TERMS, max(1, math.ceil(max(k0, 0.0))))
    n_max = _terms_for(lambda k: math.exp(log_tail(k)), target, cap)
    if n_max == _MOMENT_MAX_TERMS and math.exp(log_tail(n_max)) > 0.5 * target:
        raise ConvergenceError(f"moment series needs more than {_MOMENT_MAX_TERMS} "
                               f"terms at x={x!r}")

    # (k+a)^-m underflows to 0 where (k+a)^m would overflow
    kas = [k + a for k in range(1, n_max + 1)]
    value = math.fsum([x ** (ka + c) * ka ** -m / (ka + c) for ka in kas])
    # relative error per term, in units of eps: the two roundings of the
    # exponent k+a+c become (k+a+c)|ln x| in x^(k+a+c) (at most 745 where the
    # power did not underflow), k+a's rounding becomes m/2 in (k+a)^-m, the
    # two pows add at most 4 ulp each and the add, product and quotient 2
    # more; fsum adds 1/2.  sys.float_info.min per term covers terms below
    # the normal range, so the bound is > 0 even when the sum underflows
    log_power = min(745.0, -(n_max + a + c) * lx)
    roundoff = _EPS * (log_power + m + 12.0) * value + n_max * sys.float_info.min
    tail = math.exp(log_tail(n_max) + 1e-9)  # e^1e-9 covers the log-space rounding
    return GfSum(value=value, work=n_max, bound=tail + roundoff)


def _lhs_moment_ident_zero(x: float, b: float, n: int, m: int, target: float) -> GfSum:
    return _lhs_moment_ident(x, 0.0, b, n, m, target)


# right sides: finite in polylogarithms except eq1.30's displayed series

def _rhs_lemma13(x: float, a: float, s: int) -> float:
    li = {j: param_polylog(j, a, x) for j in range(1, s + 1)}  # each Li_j(a, x) once
    out = 0.5 * s * param_polylog(s + 1, a, x * x)
    out += param_polylog(s, a, x * x) * polylog(1, x)
    out -= li[s] * li[1]
    out -= 0.5 * sum(li[j] * li[s + 1 - j] for j in range(2, s))
    return out


def _rhs_lemma13_two_var(x: float, y: float, a: float, s: int) -> float:
    out = s * param_polylog(s + 1, a, x * y)
    out -= sum(param_polylog(j, a, x) * param_polylog(s + 1 - j, a, y) for j in range(1, s + 1))
    out += param_polylog(s, a, x * y) * (polylog(1, x) + polylog(1, y))
    return out


def _sum_h_over_nsq_gf(x: float) -> float:
    """sum H_n x^n/n^2 for -1 < x < 1 in trilogarithms (Lewin 1981)."""
    lg = math.log1p(-x)
    if x <= 0.5:
        y = x / (x - 1.0)  # in [-1, 1/2)
        return 2.0 * polylog(3, x) + polylog(3, y) + lg * polylog(2, y) + lg**3 / 3.0
    return (polylog(3, x) - polylog(3, 1.0 - x) + lg * polylog(2, 1.0 - x)
            + 0.5 * math.log(x) * lg * lg + riemann_zeta(3))


def _rhs_hn_h2(x: float) -> float:
    return (2.0 * polylog(3, x) - math.log(1.0 - x) * polylog(2, x)
            - _sum_h_over_nsq_gf(x)) / (1.0 - x)


def _rhs_hn_hm(x: float, m: int) -> float:
    # (sum H_n x^n/n^m + sum r_n/n^m)/(1-x) with r_n = sum_{k>n} x^k/k, the
    # product identity for general m with its nested series folded through
    # the log remainder; r_n comes from one backward recurrence
    # r_(n-1) = r_n + x^n/n, smallest terms first
    n_max = _geom_terms(x)
    s1m = 0.0
    h1 = 0.0
    xn = 1.0
    steps = []
    for n in range(1, n_max + 1):
        xn *= x
        h1 += 1.0 / n
        s1m += h1 * xn * float(n) ** (-m)
        steps.append(xn / n)
    rsum = 0.0
    r = 0.0
    for n in range(n_max, 0, -1):
        rsum += r * float(n) ** (-m)
        r += steps[n - 1]
    return (s1m + rsum) / (1.0 - x)


def _rhs_nested_reflect(x: float, y: float, p: int, m: int) -> float:
    return polylog(p, x) * polylog(m, y) + polylog(p + m, x * y)


def _rhs_sq_diff(x: float) -> float:
    return math.log(1.0 - x) ** 2 / (1.0 - x)


def _h_series(s: int, a: float, x: float) -> float:
    return x**a * param_polylog(s, a, x)


def _rhs_moment_ident(x: float, a: float, b: float, n: int, m: int) -> float:
    rhs = 0.0
    for kk in range(1, m):
        rhs += (-1.0) ** (kk - 1) * x ** (n + b) / (n + b) ** kk * _h_series(m + 1 - kk, a, x)
    # the display's x^(n+b) H_1(x,a) + sum_{k<=n} x^(k+a+b)/(k+a+b) - H_1(x,a+b)
    # is the tail x^(n+a+b) (Li_1(a,x) - Li_1(n+a+b,x)); summed part by part it
    # cancels to far below the size of its parts at large n
    rhs += (-1.0) ** (m - 1) / (n + b) ** m * x ** (n + a + b) * (
        param_polylog(1, a, x) - param_polylog(1, n + a + b, x))
    return rhs


def _rhs_moment_ident_zero(x: float, b: float, n: int, m: int) -> float:
    rhs = 0.0
    for i in range(1, m):
        rhs += (-1.0) ** (i - 1) / (n + b) ** i * x ** (n + b) * polylog(m + 1 - i, x)
    # likewise sum_{j<=n} x^(j+b)/(j+b) + x^(n+b) Li_1(x) - H_1(x,b) is the tail
    # x^(n+b) (Li_1(x) - Li_1(n+b,x))
    rhs += (-1.0) ** (m - 1) / (n + b) ** m * x ** (n + b) * (
        polylog(1, x) - param_polylog(1, n + b, x))
    return rhs


def _gf_args(kind: GfKind, params) -> tuple:
    """Validated positional arguments of one kind's left and right sides, with
    the integer minimums the catalog declares."""
    if kind in (GfKind.LEMMA13, GfKind.LEMMA13_TWO_VAR):
        x = _require_open_x(params["x"])
        a = as_shift(params["a"])
        if kind is GfKind.LEMMA13:
            return x, a, as_integer(params["s"], 2, "s")
        return x, _require_open_x(params["y"], "y"), a, as_integer(params["s"], 1, "s")
    if kind in (GfKind.HN_H2, GfKind.SQ_DIFF):
        return (_require_open_x(params["x"]),)
    if kind is GfKind.HN_HM:
        return _require_open_x(params["x"]), as_integer(params["m"], 2, "m")
    if kind is GfKind.NESTED_REFLECT:
        return (_require_open_x(params["x"]), _require_open_x(params["y"], "y"),
                as_integer(params["p"], 1, "p"), as_integer(params["m"], 1, "m"))
    # x^(n+b) is complex for x < 0 and non-integer n + b
    x = float(params["x"])
    if not 0.0 < x < 1.0:
        raise DomainError(f"{kind.value} requires 0 < x < 1, got x={x}")
    b = as_shift(params["b"], minimum=0.0, name="b")
    n, m = as_integer(params["n"], 1, "n"), as_integer(params["m"], 1, "m")
    if kind is GfKind.MOMENT_IDENT:
        return x, as_shift(params["a"], minimum=0.0), b, n, m
    return x, b, n, m


_LHS = {
    GfKind.LEMMA13: _lhs_lemma13,
    GfKind.LEMMA13_TWO_VAR: _lhs_lemma13_two_var,
    GfKind.HN_H2: _lhs_hn_h2,
    GfKind.HN_HM: _lhs_hn_hm,
    GfKind.SQ_DIFF: _lhs_sq_diff,
    GfKind.NESTED_REFLECT: _lhs_nested_reflect,
    GfKind.MOMENT_IDENT: _lhs_moment_ident,
    GfKind.MOMENT_IDENT_ZERO: _lhs_moment_ident_zero,
}

_RHS = {
    GfKind.LEMMA13: _rhs_lemma13,
    GfKind.LEMMA13_TWO_VAR: _rhs_lemma13_two_var,
    GfKind.HN_H2: _rhs_hn_h2,
    GfKind.HN_HM: _rhs_hn_hm,
    GfKind.SQ_DIFF: _rhs_sq_diff,
    GfKind.NESTED_REFLECT: _rhs_nested_reflect,
    GfKind.MOMENT_IDENT: _rhs_moment_ident,
    GfKind.MOMENT_IDENT_ZERO: _rhs_moment_ident_zero,
}

def gf_rhs(kind: GfKind | str, **params) -> float:
    """The displayed right side of a generating-function or moment identity."""
    kind = GfKind(kind)
    return _RHS[kind](*_gf_args(kind, params))


def gf_lhs(kind: GfKind | str, target: float, **params) -> GfSum:
    """The left side of any kind, summed directly with a certified bound.

    The term count is fixed before summing: the least N whose tail bound is
    at most target/2, up to the count where |x|^N < 1e-19 (for the moment
    kinds, up to where their geometric bound alone meets target/2).  The
    caller compares the bound (tail plus roundoff) with its target: it passes
    the target where that cap leaves a larger tail, or where the roundoff of
    a large sum alone does.  Raises DomainError unless target > 0, and
    ConvergenceError where a moment kind needs more than _MOMENT_MAX_TERMS
    terms or another kind's count passes _GF_MAX_TERMS.
    """
    kind = GfKind(kind)
    target = float(target)
    if not target > 0.0:
        raise DomainError(f"gf_lhs target must be > 0, got {target}")
    return _LHS[kind](*_gf_args(kind, params), target)


# gf_two_sided's left sides: below the resolution of a double for values of
# order one, so the residual measures the right side
_TWO_SIDED_TARGET = 1e-16


def gf_two_sided(kind: GfKind | str, **params) -> GfResult:
    """Both sides of one kind, gf_lhs at a fixed tight target against gf_rhs."""
    kind = GfKind(kind)
    rhs = gf_rhs(kind, **params)
    lhs = gf_lhs(kind, _TWO_SIDED_TARGET, **params)
    return GfResult(lhs=lhs.value, rhs=rhs, work=lhs.work)
