"""Closed-form evaluators for linear, quadratic and cubic harmonic-number sums
over shifted and window denominators, plus the generating-function and moment
identities they rest on.

The closed forms are finite expressions in special-function values (zeta,
Hurwitz zeta, polylogarithms, shifted harmonic numbers) plus sums over the
window width k; none truncates the series it evaluates.  sum H_(n+c)/n^2 comes
from a recurrence in c and an asymptotic expansion, in a fixed number of
operations.  The only direct series sums here are the left sides of the
generating-function identities, which the catalog uses as their oracles.

Conventions: ``zeta_shift(s, a)`` below always means zeta(s, a+1), i.e. the
series sum_{n>=1} (n+a)^-s, and ``h_shift(a)`` is the shifted harmonic number
H_a = psi(a+1) + gamma.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConvergenceError, DomainError
from .harmonic import param_harmonic, shifted_harmonic, y_moment
from .specfun import (
    _BERNOULLI,
    as_shift,
    hurwitz_zeta,
    param_polylog,
    polylog,
    riemann_zeta,
)


@dataclass(frozen=True)
class WindowSumParams:
    """Parameters of a window denominator (n+a)(n+a+k) with numerator order m."""

    a: float
    k: int
    m: int = 1

    def __post_init__(self):
        as_shift(self.a)
        if self.k < 1 or self.k != int(self.k):
            raise DomainError(f"window width k must be a positive integer, got {self.k}")
        if self.m < 1 or self.m != int(self.m):
            raise DomainError(f"numerator order m must be a positive integer, got {self.m}")


def _zeta_shift(s: int, a: float) -> float:
    return hurwitz_zeta(s, a + 1.0)


def _h_shift(a: float, m: int = 1) -> float:
    return shifted_harmonic(a, m)


def sum_recip_shift(a: float, s: int) -> float:
    """sum 1/(n (n+a)^s) = H_a/a^s - sum_{j=2..s} zeta(j, a+1)/a^(s+1-j)."""
    a = as_shift(a, minimum=0.0)
    if s < 1 or s != int(s):
        raise DomainError(f"sum_recip_shift requires integer s >= 1, got {s}")
    s = int(s)
    return _h_shift(a) / a**s - sum(_zeta_shift(j, a) / a ** (s + 1 - j) for j in range(2, s + 1))


def sum_H1_power(a: float, s: int) -> float:
    """sum H_n/(n+a)^s for a > 0, s >= 2."""
    a = as_shift(a, minimum=0.0)
    if s < 2 or s != int(s):
        raise DomainError(f"sum_H1_power requires integer s >= 2, got {s}")
    s = int(s)
    out = 0.5 * s * _zeta_shift(s + 1, a)
    out -= 0.5 * sum(_zeta_shift(s - j, a) * _zeta_shift(j + 1, a) for j in range(1, s - 1))
    out += _zeta_shift(s, a) * _h_shift(a)
    return out + sum_recip_shift(a, s)


def polylog_moment(m: int, a: float) -> float:
    """sum 1/(n^m (n+a)), the x^(a-1) moment of Li_m over (0,1)."""
    a = as_shift(a, minimum=0.0)
    if m < 1 or m != int(m):
        raise DomainError(f"polylog_moment requires integer m >= 1, got {m}")
    m = int(m)
    out = sum((-1.0) ** (l - 1) * riemann_zeta(m + 1 - l) / a**l for l in range(1, m))
    return out + (-1.0) ** (m - 1) * _h_shift(a) / a**m


def sum_H1_bilinear(a: float, b: float, *, as_printed: bool = False) -> float:
    """sum H_n/((n+a)(n+b)) for distinct a, b > 0.

    The default form carries the verified middle term (H_b^2 - H_a^2); the
    as-printed variant flips it and is retained only so the verifier can
    document its refutation.
    """
    a = as_shift(a, minimum=0.0, name="a")
    b = as_shift(b, minimum=0.0, name="b")
    if a == b:
        raise DomainError("sum_H1_bilinear requires a != b")
    mid = _h_shift(a) ** 2 - _h_shift(b) ** 2
    if not as_printed:
        mid = -mid
    return (
        (_h_shift(a) / a - _h_shift(b) / b) / (b - a)
        + mid / (2.0 * (b - a))
        + (_zeta_shift(2, a) - _zeta_shift(2, b)) / (2.0 * (b - a))
    )


def _window_guard(a: float, k: int, m: int = 1) -> WindowSumParams:
    p = WindowSumParams(a=float(a), k=int(k), m=int(m))
    if not p.a > 0:
        raise DomainError(f"window sums require a > 0, got a={p.a}")
    return p


def sum_Hm_window(a: float, k: int, m: int) -> float:
    """sum H_n^(m)/((n+a)(n+a+k)) for a > 0, k >= 1, m >= 1."""
    p = _window_guard(a, k, m)
    a, k, m = p.a, p.k, p.m
    br = polylog_moment(m, a)
    br += sum(
        (-1.0) ** (j - 1) * riemann_zeta(m + 1 - j) * param_harmonic(k - 1, j, a)
        for j in range(1, m)
    )
    sgn = (-1.0) ** (m - 1)
    br += sgn * _h_shift(a) * param_harmonic(k - 1, m, a)
    br += sgn * sum(param_harmonic(i, 1, a) / (i + a) ** m for i in range(1, k))
    return br / k


def sum_sq_diff_window(a: float, k: int) -> float:
    """sum (H_n^2 - H_n^(2))/((n+a)(n+a+k)) = (1/k) sum_j Y_2(a+j-1)/(a+j-1)."""
    p = _window_guard(a, k)
    a, k = p.a, p.k
    return sum(y_moment(2, a + j - 1.0) / (a + j - 1.0) for j in range(1, k + 1)) / k


def sum_H1sq_window(a: float, k: int) -> float:
    """sum H_n^2/((n+a)(n+a+k)) for a > 0, k >= 1."""
    p = _window_guard(a, k)
    a, k = p.a, p.k
    br = riemann_zeta(2) * param_harmonic(k, 1, a - 1.0)
    br -= _h_shift(a) * param_harmonic(k, 2, a - 1.0)
    br -= sum(param_harmonic(i, 1, a) / (i + a) ** 2 for i in range(1, k))
    br += sum(
        (_h_shift(a + j - 1.0) ** 2 + _h_shift(a + j - 1.0, 2)) / (a + j - 1.0)
        for j in range(1, k + 1)
    )
    return br / k


@lru_cache(maxsize=None)
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
    shift = 0.0
    while c < big_j:
        c += 1.0
        shift -= polylog_moment(2, c)
    z2 = riemann_zeta(2)
    out = z2 * _h_shift(c)
    trigamma = z2  # psi'(j) = zeta(2) - H_(j-1)^(2)
    for j in range(1, big_j + 1):
        out += trigamma / (c + j)
        trigamma -= 1.0 / (j * j)
    # j > J: each asymptotic piece b_p / j^p summed as b_p sum_{j>J} 1/(j^p (c+j))
    pieces = [(1, 1.0), (2, 0.5)] + [(2 * k + 1, _BERNOULLI[2 * k]) for k in range(1, 7)]
    for p, b in pieces:
        head = sum(1.0 / (j**p * (c + j)) for j in range(big_j, 0, -1))
        out += b * (polylog_moment(p, c) - head)
    return out + shift


def sum_H1H2_window(a: float, k: int) -> float:
    """sum H_n H_n^(2)/((n+a)(n+a+k)) for a > 0, k >= 1."""
    p = _window_guard(a, k)
    a, k = p.a, p.k
    br = 0.0
    for i in range(k):
        al = a + i
        br += sum_shiftedH_over_nsq(al) / al
        br -= (_h_shift(al) ** 2 + _h_shift(al, 2)) / (2.0 * al**2)
        br += _h_shift(al) / al**3
    br -= riemann_zeta(2) * param_harmonic(k, 2, a - 1.0)
    return br / k


def cubic_stirling_window(a: float, k: int) -> float:
    """sum (H_n^3 - 3 H_n H_n^(2) + 2 H_n^(3))/((n+a)(n+a+k)), the Y_3 window."""
    p = _window_guard(a, k)
    a, k = p.a, p.k
    return sum(y_moment(3, a + i - 1.0) / (a + i - 1.0) for i in range(1, k + 1)) / k


def sum_H1cubed_window(a: float, k: int) -> float:
    """sum H_n^3/((n+a)(n+a+k)), assembled from the Y_3 window, the H H^(2)
    window, and the m=3 window."""
    return (
        cubic_stirling_window(a, k)
        + 3.0 * sum_H1H2_window(a, k)
        - 2.0 * sum_Hm_window(a, k, 3)
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
    work: int = 0  # terms the direct sum used, or quadrature nodes

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


_GF_MAX_TERMS = 60_000


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


def _lhs_lemma13(x: float, a: float, s: int, n_max: int) -> float:
    # sum_n x^n/(n+a)^s * sum_{j<n} x^(n-j)/j, inner sum by recurrence
    acc = 0.0
    c = 0.0
    xn = 1.0
    for n in range(1, n_max + 1):
        if n > 1:
            c = x * (c + 1.0 / (n - 1))
        xn *= x
        acc += xn * c / (n + a) ** s
    return acc


def _rhs_lemma13(x: float, a: float, s: int) -> float:
    out = 0.5 * s * param_polylog(s + 1, a, x * x)
    out += param_polylog(s, a, x * x) * polylog(1, x)
    out -= param_polylog(s, a, x) * param_polylog(1, a, x)
    out -= 0.5 * sum(
        param_polylog(j, a, x) * param_polylog(s + 1 - j, a, x) for j in range(2, s)
    )
    return out


def _lhs_lemma13_two_var(x: float, y: float, a: float, s: int, n_max: int) -> float:
    acc = 0.0
    cx = cy = 0.0
    xn = yn = 1.0
    for n in range(1, n_max + 1):
        if n > 1:
            cx = x * (cx + 1.0 / (n - 1))
            cy = y * (cy + 1.0 / (n - 1))
        xn *= x
        yn *= y
        acc += (yn * cx + xn * cy) / (n + a) ** s
    return acc


def _rhs_lemma13_two_var(x: float, y: float, a: float, s: int) -> float:
    out = s * param_polylog(s + 1, a, x * y)
    out -= sum(param_polylog(j, a, x) * param_polylog(s + 1 - j, a, y) for j in range(1, s + 1))
    out += param_polylog(s, a, x * y) * (polylog(1, x) + polylog(1, y))
    return out


def _log_remainder(x: float, n: int, n_max: int) -> float:
    # r_n = sum_{k>n} x^k/k, forward summation (no cancellation)
    acc = 0.0
    xk = x**n
    for k in range(n + 1, n + n_max + 1):
        xk *= x
        acc += xk / k
        if abs(xk) < 1e-21:
            break
    return acc


def _both_hn_hm(x: float, m: int) -> GfResult:
    # lhs: sum H_n H_n^(m) x^n;  rhs per the m-general product identity with the
    # nested series folded through its geometric remainder for convergence
    n_max = _geom_terms(x)
    lhs = 0.0
    h1 = hm = 0.0
    s1m = 0.0
    rsum = 0.0
    xn = 1.0
    for n in range(1, n_max + 1):
        xn *= x
        h1 += 1.0 / n
        hm += float(n) ** (-m)
        lhs += h1 * hm * xn
        s1m += h1 * xn / float(n) ** m
        rsum += _log_remainder(x, n, n_max) / float(n) ** m
    rhs = (s1m + rsum) / (1.0 - x)
    return GfResult(lhs=lhs, rhs=rhs, work=n_max)


def _both_nested_reflect(x: float, y: float, p: int, m: int) -> GfResult:
    n_max = max(_geom_terms(x), _geom_terms(y))
    lh = 0.0
    innx = inny = 0.0
    xn = yn = 1.0
    for n in range(1, n_max + 1):
        xn *= x
        yn *= y
        innx += xn / float(n) ** p
        inny += yn / float(n) ** m
        lh += yn * innx / float(n) ** m + xn * inny / float(n) ** p
    rhs = polylog(p, x) * polylog(m, y) + polylog(p + m, x * y)
    return GfResult(lhs=lh, rhs=rhs, work=n_max)


def _both_sq_diff(x: float) -> GfResult:
    n_max = _geom_terms(x)
    lhs = 0.0
    h1 = h2 = 0.0
    xn = 1.0
    for n in range(1, n_max + 1):
        xn *= x
        h1 += 1.0 / n
        h2 += 1.0 / (n * n)
        lhs += (h1 * h1 - h2) * xn
    rhs = math.log(1.0 - x) ** 2 / (1.0 - x)
    return GfResult(lhs=lhs, rhs=rhs, work=n_max)


def _both_hn_h2(x: float) -> GfResult:
    n_max = _geom_terms(x)
    lhs = 0.0
    s12 = 0.0
    h1 = h2 = 0.0
    xn = 1.0
    for n in range(1, n_max + 1):
        xn *= x
        h1 += 1.0 / n
        h2 += 1.0 / (n * n)
        lhs += h1 * h2 * xn
        s12 += h1 * xn / (n * n)
    rhs = (2.0 * polylog(3, x) - math.log(1.0 - x) * polylog(2, x) - s12) / (1.0 - x)
    return GfResult(lhs=lhs, rhs=rhs, work=n_max)


def _h_series(s: int, a: float, x: float) -> float:
    return x**a * param_polylog(s, a, x)


def _both_moment_ident(x: float, a: float, b: float, n: int, m: int) -> GfResult:
    from .oracle import Integrand, quadrature

    quad = quadrature(Integrand.LEMMA_MOMENT, {"x": x, "a": a, "b": b, "n": n, "m": m},
                      tol=1e-12)
    rhs = 0.0
    for kk in range(1, m):
        rhs += (-1.0) ** (kk - 1) * x ** (n + b) / (n + b) ** kk * _h_series(m + 1 - kk, a, x)
    rhs += (-1.0) ** (m - 1) / (n + b) ** m * (
        x ** (n + b) * _h_series(1, a, x)
        + sum(x ** (kk + a + b) / (kk + a + b) for kk in range(1, n + 1))
        - _h_series(1, a + b, x)
    )
    return GfResult(lhs=quad.value, rhs=rhs, work=quad.work)


def _both_moment_ident_zero(x: float, b: float, n: int, m: int) -> GfResult:
    from .oracle import Integrand, quadrature

    quad = quadrature(Integrand.LEMMA_MOMENT_ZERO, {"x": x, "b": b, "n": n, "m": m},
                      tol=1e-12)
    rhs = 0.0
    for i in range(1, m):
        rhs += (-1.0) ** (i - 1) / (n + b) ** i * x ** (n + b) * polylog(m + 1 - i, x)
    sgn = (-1.0) ** (m - 1)
    rhs += sgn / (n + b) ** m * sum(x ** (j + b) / (j + b) for j in range(1, n + 1))
    rhs += sgn / (n + b) ** m * (x ** (n + b) * polylog(1, x) - _h_series(1, b, x))
    return GfResult(lhs=quad.value, rhs=rhs, work=quad.work)


def gf_two_sided(kind: GfKind | str, **params) -> GfResult:
    """Evaluate both sides of a generating-function/moment identity."""
    kind = GfKind(kind)
    if kind is GfKind.LEMMA13:
        x = _require_open_x(params["x"])
        a = as_shift(params["a"])
        s = int(params["s"])
        if s < 2:
            raise DomainError("lemma13 requires s >= 2")
        n_max = _geom_terms(x)
        return GfResult(lhs=_lhs_lemma13(x, a, s, n_max), rhs=_rhs_lemma13(x, a, s),
                        work=n_max)
    if kind is GfKind.LEMMA13_TWO_VAR:
        x = _require_open_x(params["x"])
        y = _require_open_x(params["y"], "y")
        a = as_shift(params["a"])
        s = int(params["s"])
        if s < 1:
            raise DomainError("lemma13_two_var requires s >= 1")
        n_max = max(_geom_terms(x), _geom_terms(y))
        return GfResult(lhs=_lhs_lemma13_two_var(x, y, a, s, n_max),
                        rhs=_rhs_lemma13_two_var(x, y, a, s), work=n_max)
    if kind is GfKind.HN_H2:
        return _both_hn_h2(_require_open_x(params["x"]))
    if kind is GfKind.HN_HM:
        m = int(params["m"])
        if m < 2:
            raise DomainError("hn_hm requires m >= 2")
        return _both_hn_hm(_require_open_x(params["x"]), m)
    if kind is GfKind.SQ_DIFF:
        return _both_sq_diff(_require_open_x(params["x"]))
    if kind is GfKind.NESTED_REFLECT:
        p = int(params["p"])
        m = int(params["m"])
        if p < 1 or m < 1:
            raise DomainError("nested_reflect requires p, m >= 1")
        return _both_nested_reflect(
            _require_open_x(params["x"]), _require_open_x(params["y"], "y"), p, m
        )
    if kind is GfKind.MOMENT_IDENT:
        return _both_moment_ident(
            _require_open_x(params["x"]), as_shift(params["a"], minimum=0.0),
            as_shift(params["b"], minimum=0.0, name="b"), int(params["n"]), int(params["m"])
        )
    if kind is GfKind.MOMENT_IDENT_ZERO:
        return _both_moment_ident_zero(
            _require_open_x(params["x"]), as_shift(params["b"], minimum=0.0, name="b"),
            int(params["n"]), int(params["m"])
        )
    raise DomainError(f"unknown gf kind {kind!r}")  # pragma: no cover


def gf_eval(kind: GfKind | str, **params) -> float:
    """Value for the value kinds (sq_diff), |LHS - RHS| residual otherwise."""
    kind = GfKind(kind)
    res = gf_two_sided(kind, **params)
    if kind is GfKind.SQ_DIFF:
        return res.rhs
    return res.residual
