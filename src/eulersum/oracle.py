"""Independent ground-truth engines and the identity-verification driver.

Two evaluation routes, neither of which shares code with the closed forms it
checks: truncated summation with a certified tail, and tanh-sinh quadrature
of the one integrand a catalog oracle still runs, eq2.2's log-power moment
x^(a-1) ln^m(1-x) on (0, 1).  (The generating-function and moment left sides
are summed in linear_sums.gf_lhs.)  The series engine sums a declared
``Summand`` (harmonic numbers, alternating ones included, over shifted
powers and an optional reciprocal binomial) to N and adds the rest from the
summand's own expansion in 1/x and ln x for x >= N, summed by
Euler-Maclaurin (Boole for the alternating parts) with explicit remainders,
so its error bound is a theorem plus roundoff.  Everything it sums is a
Python float: each harmonic number is a compensated running sum (Sum2 of
Ogita, Rump and Oishi), the terms are built column by column on lists and
math.fsum totals them, with a roundoff bound derived from the operations of
one term.  From specfun this module takes only the constant EULER_GAMMA and
the zeta values zeta(s) and eta(s) the expansions start from, none of the
Hurwitz, alternating-series, polylog and h_func evaluators the closed sides
are built on.

The quadrature nests its levels, so each node is evaluated once, and calls
its integrand once per level on lists of nodes.  The module uses only the
standard library.
"""
from __future__ import annotations

import enum
import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, Sequence

from .errors import ConvergenceError, DomainError, PoleError
from .specfun import EULER_GAMMA, alt_zeta, riemann_zeta

_FLOAT_EPS = sys.float_info.epsilon


class Method(str, enum.Enum):
    TRUNCATED = "truncated"
    QUADRATURE = "quadrature"


class Variant(str, enum.Enum):
    CORRECTED = "corrected"
    AS_PRINTED = "as-printed"


class Status(str, enum.Enum):
    CONFIRMED = "CONFIRMED"
    REFUTED = "REFUTED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SeriesConfig:
    max_terms: int = 10**6       # cap on the terms a truncated series may sum
    min_terms: int = 128         # first N of the doubling search
    target_tol: float = 1e-9

    def __post_init__(self):
        if self.max_terms < 10:
            raise DomainError("SeriesConfig.max_terms must be >= 10")
        if self.min_terms < 10:
            raise DomainError("SeriesConfig.min_terms must be >= 10")
        if not self.target_tol > 0.0:
            raise DomainError("SeriesConfig.target_tol must be > 0")


@dataclass(frozen=True)
class EvalResult:
    value: float
    abs_error_estimate: float
    method: Method
    work: int

    def __post_init__(self):
        if self.abs_error_estimate < 0 or self.work < 0:
            raise DomainError("EvalResult requires nonnegative error estimate and work")


@dataclass(frozen=True)
class IdentityCase:
    identity_id: str
    params: Mapping[str, float]
    tol: float
    variant: Variant = Variant.CORRECTED


@dataclass(frozen=True)
class VerificationRecord:
    case: IdentityCase
    closed_value: float
    oracle_value: float
    abs_residual: float
    rel_residual: float
    status: Status
    oracle_error_bound: float
    terms: int = 0    # the oracle's EvalResult.work; 0 when it did not run
    reason: str = ""  # why the case is INCONCLUSIVE; empty otherwise


@dataclass(frozen=True)
class Summand:
    """c_n / prod_j (n + shift_j)^power_j, times 1/C(n+k+b, k) when binom = (k, b).

    c_n is a polynomial in harmonic numbers: `numerator` holds its monomials
    as (coefficient, orders) pairs, each the coefficient times the product of
    H_n^(m) over orders (1 when empty), or of the alternating
    H-bar_n^(m) = sum_{j<=n} (-1)^(j-1)/j^m when `alternating`.  `orders` is
    the one-monomial shorthand: Summand(orders) has the numerator
    ((1.0, orders),).  A shift is a number, or a tuple of numbers added to n
    in order: n + a + k is the shift (a, k).  truncated_series sums it and
    expands it past N.
    """

    orders: tuple[int, ...] = ()
    den: tuple[tuple, ...] = ()
    binom: tuple[int, float] | None = None
    alternating: bool = False
    numerator: tuple[tuple[float, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        if self.numerator and self.orders:
            raise DomainError("a Summand takes its numerator or its orders, not both")
        monomials = []
        for coef, orders in self.numerator or ((1.0, self.orders),):
            if not math.isfinite(coef):
                raise DomainError(f"numerator coefficient must be finite, got {coef}")
            for m in orders:
                if m < 1 or m != int(m):
                    raise DomainError(f"harmonic order must be an integer >= 1, got {m}")
            monomials.append((float(coef), tuple(int(m) for m in orders)))
        object.__setattr__(self, "numerator", tuple(monomials))

    def terms(self, ns: list[float],
              harmonics: Mapping[int, list[float]]) -> tuple[list[float], list[float]]:
        """The float64 terms at the indices ns, given harmonics[m] = H_n^(m)
        (H-bar_n^(m) when alternating) at the same indices for each order m
        of the numerator, and their sizes: the sum over the monomials of
        |coefficient times monomial| over the denominator, which is the term
        itself when there is one monomial.  Each operation runs over the
        whole column."""
        num = size = None
        for coef, orders in self.numerator:
            mono = None
            for m in dict.fromkeys(orders):  # a repeated order is a power: H_n^2 = h1 * h1
                h = _ipow(harmonics[m], orders.count(m))
                mono = h if mono is None else _mul(mono, h)
            if coef != 1.0 or mono is None and len(self.numerator) > 1:
                mono = [coef] * len(ns) if mono is None else [coef * v for v in mono]
            if len(self.numerator) == 1:
                num = mono
            elif num is None:
                num, size = mono, [abs(v) for v in mono]
            else:
                num = [a + b for a, b in zip(num, mono)]
                size = [a + abs(b) for a, b in zip(size, mono)]
        if self.binom is not None:
            k, b = int(self.binom[0]), float(self.binom[1])
            # 1/binom(n+k+b, k) = k! / prod_{i=1..k} (n+b+i), stable for any n
            rb = [float(math.factorial(k))] * len(ns)
            for i in range(1, k + 1):
                bi = b + i
                rb = [r / (n + bi) for r, n in zip(rb, ns)]
            num = rb if num is None else _mul(num, rb)
            size = size and _mul(size, rb)
        den = None
        for shift, power in self.den:
            x = ns
            for s in shift if isinstance(shift, tuple) else (shift,):
                if s:  # n + 0 is n
                    x = [v + s for v in x]
            x = _ipow(x, int(power))
            den = x if den is None else _mul(den, x)
        if den is not None:
            num = [1.0 / d for d in den] if num is None else [v / d for v, d in zip(num, den)]
            size = size and [v / d for v, d in zip(size, den)]
        return num, size or num


def _mul(x: Sequence[float], y: Sequence[float]) -> list[float]:
    return [a * b for a, b in zip(x, y)]


def _ipow(x: list[float], p: int) -> list[float]:
    # x**p for an integer p >= 1 by squaring and multiplying, elementwise;
    # whatever the order of the products, x^p carries at most p - 1 roundings
    # of its own, and a product past the float range is inf, not an error
    result = None
    while True:
        if p & 1:
            result = x if result is None else _mul(result, x)
        p >>= 1
        if not p:
            return result
        x = _mul(x, x)


def _harmonic_roundings(m: int, alternating: bool, n: int) -> float:
    """A bound on the relative error of the float64 H_n^(m) (H-bar_n^(m) when
    alternating) that _partial_terms gives at any index up to n, in units of
    u = eps/2.

    Each input 1/j^m is j^m by m - 1 products and one quotient, so it is
    off by at most gamma_m |1/j^m| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 3), or by less than float_info.min
    where it is subnormal or j^m overflowed and it reads 0.  Sum2 gives the
    sum of the inputs p within u |sum p| + gamma_(n-1)^2 sum |p| (Ogita, Rump
    and Oishi, "Accurate sum and dot product", 2005, Prop. 4.5).  With
    S = sum_(j<=n) 1/j^m and a = n float_info.min, the error is therefore at
    most u |H| + (1 + u + gamma_(n-1)^2) (gamma_m S + a) + gamma_(n-1)^2 S.
    Without alternation S = H >= 1.  With it S = H_n^(m) <= 1 + ln n, while
    |H-bar_n^(m)| >= 1 - 2^-m: the partial sums of an alternating series
    with falling terms lie between its second and first ones.
    """
    u = 0.5 * _FLOAT_EPS
    low = 1.0 - 2.0 ** -m if alternating else 1.0          # |H| >= low
    ratio = (1.0 + math.log(n)) / low if alternating else 1.0  # S/|H| <= ratio
    g2 = ((n - 1) * u / (1.0 - (n - 1) * u)) ** 2
    gm = m * u / (1.0 - m * u)
    return 1.0 + ((1.0 + u + g2) * (ratio * gm + n * sys.float_info.min / low)
                  + ratio * g2) / u


def _roundings(summand: Summand, n: int) -> float:
    """A bound on the error of one float64 term at an index up to n, relative
    to its size (Summand.terms) and in units of u = eps/2, to first order
    (truncated_series covers the rest).

    Each rounding is at most u of its result, and x^p carries p times the
    error already in x.  The count: for each monomial, each H_n^(m) its
    _harmonic_roundings, so j times that for H^j, plus the j - 1 multiplies
    of that power, one per further factor and one for a coefficient other
    than 1; the most of these over the monomials, since each is relative to
    its own |coefficient times monomial|, plus one per addition of a further
    monomial, each at most u of the size; for the binomial, one for k! and
    three per step (the scalar b + i, the add and the divide), and one for
    its product with a numerator; for a denominator factor of r shift adds
    raised to p, p*r for the adds and p - 1 for the power; one per further
    denominator factor, and one for the quotient.  With n >= 1 and shifts
    and b >= 0, as in every catalog summand, each partial sum n + s_1 + ...
    is at most the factor it ends in, so an add's rounding is at most u of
    that factor.
    """
    monomials = summand.numerator
    count = len(monomials) - 1 + max(
        max(0, len(orders) - 1) + (coef != 1.0)
        + sum(_harmonic_roundings(m, summand.alternating, n) for m in orders)
        for coef, orders in monomials)
    if summand.binom is not None:
        count += 1 + 3 * int(summand.binom[0]) + (monomials != ((1.0, ()),))
    for i, (shift, power) in enumerate(summand.den):
        adds = sum(1 for s in (shift if isinstance(shift, tuple) else (shift,)) if s)
        count += int(power) * (adds + 1) - 1 + (i > 0)
    return count + (len(summand.den) > 0)


def _partial_terms(summand: Summand, start: int, stop: int,
                   running: dict[int, tuple[float, float]]) -> tuple[list[float], float]:
    """The summand's float64 terms at n = start..stop and the sum of their
    sizes (Summand.terms).  running maps each numerator order m to the Sum2
    state (s, c) of its harmonic sum up to start - 1 (absent: nothing summed
    yet) and is moved past stop; each order's sum runs once, whatever the
    monomials that share it.

    H_n^(m) is s + c, rounded once, after the input 1/n^m (negated at even n
    when alternating) is added to s with its rounding error moved into c by
    Fast2Sum.  That transformation is exact because |s| >= |1/n^m| at every
    n (Dekker; Ogita, Rump and Oishi, Alg. 4.4): s is 0 before n = 1 and 1
    before n = 2, and later within roundoff of a partial sum of at least
    1 - 2^-m >= 1/2, while the input is at most 1/3.
    A term that overflows or underflows gives 0 or a subnormal, not an error.
    """
    ns = [float(n) for n in range(start, stop + 1)]
    harmonics = {}
    for m in dict.fromkeys(m for _, orders in summand.numerator for m in orders):
        inputs = [1.0 / p for p in _ipow(ns, m)]
        if summand.alternating:
            even = start % 2  # the offset of the first even n
            inputs[even::2] = [-p for p in inputs[even::2]]
        s, c = running.get(m, (0.0, 0.0))
        h = []
        for p in inputs:
            t = s + p
            c += p - (t - s)
            s = t
            h.append(s + c)
        running[m] = (s, c)
        harmonics[m] = h
    terms, sizes = summand.terms(ns, harmonics)
    return terms, math.fsum(map(abs, sizes))


# --------------------------------------------------------------------------
# the tail past N: the summand's expansion in 1/x and ln x, summed in closed form
# --------------------------------------------------------------------------

_MAX_DEGREE = 86
"""Summands whose denominator degree reaches this are refused with OverflowError.

These are the degrees d whose 4093.0**d overflows.  There the closed sides
of the power sums lose every digit (eq1.27 at a = 0.5 reads 8.6e9 at s = 86),
so a certified oracle value would turn them into false REFUTED verdicts;
ROADMAP item 1 (closed sides without that cancellation) is what would lift
the limit.
"""

_B = (1.0,) + tuple((-1) ** (k + 1) * 2.0 * riemann_zeta(2 * k) / (2.0 * math.pi) ** (2 * k)
                    for k in range(1, 17))
"""B_2k/(2k)! for k = 0..16, from zeta(2k) = (2 pi)^2k |B_2k|/(2 (2k)!) (DLMF 25.6.2)."""


class _Expansion(NamedTuple):
    """f(x) = sum c (-1)^(p x) x^-j (ln x)^l + r(x) for every x >= n, with
    |r(x)| <= eps x^-J (ln x)^g.

    coefs maps (p, j, l) to c: a parity p (0, or 1 for a factor (-1)^x, which
    at integer x is what an alternating harmonic number carries), v <= j < J
    and l <= g.  v is the least power of 1/x the function carries and g the
    most powers of ln x.  Each bound uses ln x >= ln n >= 1.
    """

    coefs: dict
    v: int
    g: int
    J: int
    eps: float


def _cut(terms: dict, v: int, g: int, J: int, eps: float, n: float,
         logn: float) -> _Expansion:
    # the terms of order J and beyond join the remainder: for x >= n,
    # x^-j (ln x)^l <= n^(J-j) (ln n)^(l-g) x^-J (ln x)^g
    coefs = {}
    for key, c in terms.items():
        if key[1] < J:
            coefs[key] = c
        else:
            eps += abs(c) * n ** (J - key[1]) * logn ** (key[2] - g)
    return _Expansion(coefs, v, g, J, eps)


def _majorant(e: _Expansion, n: float, logn: float) -> float:
    # the truncated sum is at most this times x^-v (ln x)^g for every x >= n
    return sum(abs(c) * n ** (e.v - j) * logn ** (l - e.g) for (_, j, l), c in e.coefs.items())


def _product(a: _Expansion, b: _Expansion, n: float, logn: float) -> _Expansion:
    """a times b.  The factors are cut so that a.v + b.J = b.v + a.J = J, and
    the product's remainder is |a| r_b + |b| r_a + r_a r_b."""
    J = a.v + b.J
    eps = (_majorant(a, n, logn) * b.eps + _majorant(b, n, logn) * a.eps
           + a.eps * b.eps * n ** (J - a.J - b.J))
    terms: dict = {}
    for (pa, ja, la), ca in a.coefs.items():
        for (pb, jb, lb), cb in b.coefs.items():
            key = (pa ^ pb, ja + jb, la + lb)  # (-1)^x (-1)^x = 1
            terms[key] = terms.get(key, 0.0) + ca * cb
    return _cut(terms, a.v + b.v, a.g + b.g, J, eps, n, logn)


def _harmonic_expansion(m: int, alternating: bool, K: int, n: float,
                        logn: float) -> _Expansion:
    """H_x^(m), or H-bar_x^(m) when alternating, for x >= n, cut at x^-K.

    H_x = psi(x+1) + gamma = ln x + gamma + 1/(2x) - sum_k B_2k/(2k x^2k),
    each remainder at most the first term left out (DLMF 5.11.2, 5.11(ii)).
    H_x^(m) = zeta(m) - zeta(m, x+1), and zeta(m, x+1) = x^(1-m)/(m-1)
    - x^-m/2 + sum_k B_2k/(2k)! (m)_(2k-1) x^(1-m-2k) by Euler-Maclaurin, the
    remainder at most twice the first term left out (DLMF 2.10.1: the
    periodic Bernoulli function stays within |B_2k| of B_2k, and the
    derivatives of t^-m keep one sign).  H-bar_x^(m) = eta(m) - (-1)^x A_m(x)
    with A_m(x) = sum_(i>=1) (-1)^(i-1)/(x+i)^m, and Boole summation (DLMF
    24.17.1 with h = 1) gives A_m(x) = 1/2 sum_(k<M) E_k(0) (m)_k/k! x^(-m-k)
    with a remainder of at most 2 lambda(M)/pi^M (m)_(M-1) x^(1-m-M): the
    Euler polynomials' Fourier series (DLMF 24.8.5) bound |E_(M-1)(x)| on
    [0, 1] by 4 (M-1)! lambda(M)/pi^M, lambda(M) = (1 - 2^-M) zeta(M).
    """
    if alternating:
        M = max(2, K - m + 1)
        terms = {(0, 0, 0): alt_zeta(m)}
        poch = 1.0  # (m)_k
        for k in range(M):
            if k == 0 or k % 2:
                # E_k(0)/k! = -2 (2^(k+1) - 1) B_(k+1)/(k+1)! for odd k
                e = 1.0 if k == 0 else -2.0 * (2.0 ** (k + 1) - 1.0) * _B[(k + 1) // 2]
                terms[1, m + k, 0] = -0.5 * e * poch
            poch *= m + k
        lam = (1.0 - 2.0 ** -M) * riemann_zeta(M)
        eps = 2.0 * lam / math.pi ** M * poch / (m + M - 1) * n ** (K - m - M + 1)
        return _cut(terms, 0, 0, K, eps, n, logn)
    if m == 1:
        r = max(1, (K + 1) // 2)
        terms = {(0, 0, 1): 1.0, (0, 0, 0): EULER_GAMMA, (0, 1, 0): 0.5}
        for k in range(1, r):
            terms[0, 2 * k, 0] = -math.factorial(2 * k - 1) * _B[k]
        eps = math.factorial(2 * r - 1) * abs(_B[r]) * n ** (K - 2 * r) / logn
        return _cut(terms, 0, 1, K, eps, n, logn)
    r = max(1, -(-(K - m + 1) // 2))
    terms = {(0, 0, 0): riemann_zeta(m), (0, m - 1, 0): -1.0 / (m - 1), (0, m, 0): 0.5}
    poch = float(m)  # (m)_(2k-1)
    for k in range(1, r):
        terms[0, m + 2 * k - 1, 0] = -_B[k] * poch
        poch *= (m + 2 * k - 1) * (m + 2 * k)
    eps = 2.0 * abs(_B[r]) * poch * n ** (K - m - 2 * r + 1)
    return _cut(terms, 0, 0, K, eps, n, logn)


class _Shifts(NamedTuple):
    # a summand's denominator as (shift, power) pairs, the binomial's k
    # factors (x + b + i) included; their degree D, the largest |shift| and
    # the binomial's k! (1 without one)
    pairs: list
    degree: int
    s_max: float
    scale: float


def _shifts(summand: Summand) -> _Shifts:
    pairs = [(math.fsum(shift) if isinstance(shift, tuple) else float(shift), int(power))
             for shift, power in summand.den]
    scale = 1.0
    if summand.binom is not None:
        k, b = int(summand.binom[0]), float(summand.binom[1])
        pairs += [(b + i, 1) for i in range(1, k + 1)]
        scale = float(math.factorial(k))
    return _Shifts(pairs, sum(p for _, p in pairs), max((abs(s) for s, _ in pairs), default=0.0),
                   scale)


def _denominator_remainder(shifts: _Shifts, K: int, n: float) -> float:
    # the remainder of the denominator series past u^K (see below), as a
    # multiple of x^-(D+K); inf where rho >= 1 leaves no bound
    rho = shifts.s_max / n * (K + shifts.degree) / (K + 1)
    if not rho < 1.0:
        return math.inf
    return shifts.scale * math.comb(K + shifts.degree - 1, K) * shifts.s_max ** K / (1.0 - rho)


def _denominator_expansion(shifts: _Shifts, K: int, n: float) -> _Expansion | None:
    """1/prod_j (x + s_j)^p_j times k!/prod_(i<=k) (x + b + i), for x >= n, cut
    at x^-(D+K), D the degree; None when n is too small for the series.

    The product is k! x^-D prod (1 + s u)^-1 over the D shifts s, u = 1/x: a
    power series in u whose r-th coefficient is at most C(r+D-1, r) s_max^r
    in size, so past r = K the rest is at most C(K+D-1, K) (s_max u)^K
    / (1 - rho), rho = s_max/n (K+D)/(K+1) bounding the ratio of those terms.
    """
    eps = _denominator_remainder(shifts, K, n)
    if eps == math.inf:
        return None
    q = [1.0] + [0.0] * (K - 1)
    for s, p in shifts.pairs:
        for _ in range(p if s else 0):
            for r in range(1, K):  # divide by 1 + s u
                q[r] -= s * q[r - 1]
    D = shifts.degree
    return _Expansion({(0, D + r, 0): shifts.scale * c for r, c in enumerate(q)}, D, 0, D + K, eps)


def _basis_integral(j: int, l: int, n: float, logn: float) -> float:
    # integral_n^inf x^-j (ln x)^l dx for j > 1, by parts: l/(j-1) times the
    # same integral with l - 1, plus (ln n)^l n^(1-j)/(j-1)
    head = n ** (1 - j) / (j - 1)
    out = head
    for i in range(1, l + 1):
        out = head * logn ** i + i / (j - 1) * out
    return out


def _basis_integrals(j0: int, count: int, g: int, n: float, logn: float) -> list[list[float]]:
    # _basis_integral for l = 0..g (the rows) and j = j0, ..., j0 + count - 1,
    # each row from the one before
    js = range(j0, j0 + count)
    head = [n ** (1 - j) / (j - 1) for j in js]
    out = [head]
    for i in range(1, g + 1):
        li = logn ** i
        out.append([h * li + i / (j - 1) * o for h, j, o in zip(head, js, out[-1])])
    return out


# The summations below take G = sum c x^-j (ln x)^l as (j0, rows): rows[l]
# holds the coefficients of (ln x)^l at j = j0, j0 + 1, ..., all rows of
# one length.

def _derivative(G: tuple) -> tuple:
    # d/dx x^-j (ln x)^l = -j x^-(j+1) (ln x)^l + l x^-(j+1) (ln x)^(l-1)
    j0, rows = G
    js = range(j0, j0 + len(rows[0]))
    out = [[(l + 1) * b - j * a for j, a, b in zip(js, rows[l], rows[l + 1])]
           for l in range(len(rows) - 1)]
    out.append([-j * a for j, a in zip(js, rows[-1])])
    return j0 + 1, out


def _at(G: tuple, n: float, logs: list[float]) -> float:
    # G(n), logs[l] = (ln n)^l
    j0, rows = G
    powers = [n ** -j for j in range(j0, j0 + len(rows[0]))]
    return math.fsum([c * p * lg for row, lg in zip(rows, logs) for c, p in zip(row, powers)])


def _abs_integral(G: tuple, n: float, logn: float) -> float:
    # integral_n^inf of sum |c| x^-j (ln x)^l, at least integral_n^inf |G|
    j0, rows = G
    integrals = _basis_integrals(j0, len(rows[0]), len(rows) - 1, n, logn)
    return sum([abs(c) * i for row, irow in zip(rows, integrals) for c, i in zip(row, irow)])


def _derivative_mass(G: tuple, k: int, n: float, logn: float) -> float:
    """At least integral_n^inf |G^(k)|, or inf.

    x^-j (ln x)^l = (-d/da)^l x^-a at a = j, so its k-th derivative is
    sum_i C(l, i) (-1)^(k+i) (d/da)^i (a)_k x^-(j+k) (ln x)^(l-i), where
    (d/da)^i (a)_k <= (a)_k (k/a)^i: in size at most (j)_k x^-(j+k)
    (ln x + k/j)^l <= (j)_k (1 + k/(j ln n))^l x^-(j+k) (ln x)^l.  Its
    integral past n is at most (j)_k n^(1-j-k) (ln n + k/j)^l / (j+k-1 - l/ln n)
    (_basis_integral, each step of the recursion at most l/((j+k-1) ln n)
    of the one before), where that denominator is positive.
    """
    j0, rows = G
    js = range(j0, j0 + len(rows[0]))
    if not (j0 + k - 1) * logn > len(rows) - 1:
        return math.inf
    size = [math.prod(range(j, j + k)) * n ** (1 - j - k) for j in js]
    grow = [logn + k / j for j in js]
    total = 0.0
    for l, row in enumerate(rows):
        shrink = l / logn
        total += sum([abs(c) * w * q ** l / (j + k - 1 - shrink)
                      for c, w, q, j in zip(row, size, grow, js)])
    return total


def _em_tail(G: tuple | None, n: float, logn: float,
             budget: float) -> tuple[float, float, float]:
    """sum_(x>n) G(x), a bound on its error and the integral of sum |c| x^-j
    (ln x)^l over x > n, for G = sum c x^-j (ln x)^l (None: 0).

    Euler-Maclaurin from n (DLMF 2.10.1): integral_n^inf G - G(n)/2
    - sum_(s<M) B_2s/(2s)! G^(2s-1)(n), with a remainder of at most
    2 |B_2M|/(2M)! integral_n^inf |G^(2M)| (_derivative_mass).  M grows
    until that bound is within the budget or stops falling; the odd
    derivatives of G are formed as the sum takes them.
    """
    if G is None:
        return 0.0, 0.0, 0.0
    j0, rows = G
    logs = [logn ** l for l in range(len(rows))]
    integrals = _basis_integrals(j0, len(rows[0]), len(rows) - 1, n, logn)
    parts = [c * i for row, irow in zip(rows, integrals) for c, i in zip(row, irow)]
    value = math.fsum(parts) - 0.5 * _at(G, n, logs)
    mass = sum(map(abs, parts))
    best = (value, math.inf)
    odd = None  # G^(2s-1)
    for s in range(1, len(_B)):
        bound = 2.0 * abs(_B[s]) * _derivative_mass(G, 2 * s, n, logn)
        if not bound < best[1]:
            break
        best = (value, bound)
        if bound <= budget:
            break
        odd = _derivative(G) if odd is None else _derivative(_derivative(odd))
        value -= _B[s] * _at(odd, n, logs)
    return best + (mass,)


def _boole_tail(G: tuple | None, n: int, logn: float, budget: float) -> tuple[float, float]:
    """sum_(x>n) (-1)^x G(x) and a bound on its error (None: 0).

    Boole summation from n (DLMF 24.17.1, h = 1): (-1)^(n+1)/2 sum_(k<M)
    E_k(1)/k! G^(k)(n), with a remainder of at most 2 lambda(M)/pi^M
    integral_n^inf |G^(M)| (see _harmonic_expansion).  E_k(1) = (-1)^k E_k(0)
    is 1 at k = 0 and 0 at the other even k.  M grows until that bound is
    within the budget or stops falling.
    """
    if G is None:
        return 0.0, 0.0
    logs = [logn ** l for l in range(len(G[1]))]
    value = 0.0
    best = (value, math.inf)
    der = G
    for k in range(2 * len(_B) - 3):
        if k == 0 or k % 2:
            e = 1.0 if k == 0 else 2.0 * (2.0 ** (k + 1) - 1.0) * _B[(k + 1) // 2]
            value += 0.5 * e * _at(der, n, logs)
        der = _derivative(der)
        M = k + 1
        if M < 2:
            continue
        lam = (1.0 - 2.0 ** -M) * riemann_zeta(M)
        bound = 2.0 * lam / math.pi ** M * _abs_integral(der, n, logn)
        if not bound < best[1]:
            break
        best = (value, bound)
        if bound <= budget:
            break
    sign = -1.0 if n % 2 == 0 else 1.0  # (-1)^(n+1)
    return sign * best[0], best[1]


_MAX_TAIL_ORDER = 16  # the most orders K an expansion keeps past its leading one


def _least(fits: Callable[[int], bool], lo: int, hi: int) -> int:
    """The least n in [lo, hi] with fits(n), by bisection, for a test that
    stays true once it holds; hi itself (never tested) when nothing below
    it fits."""
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def _order(summand: Summand, shifts: _Shifts, n: float, logn: float,
           half: float) -> tuple[int, _Expansion | None]:
    """The order K at which to cut the tail's expansion, sized before the
    denominator's expansion is built, and the numerator's expansion at K
    (None for the numerator 1).

    To first order the summand's expansion past x^-(D+K) is the numerator's
    leading coefficients times the denominator's remainder past x^-(D+K),
    plus its x^-1 coefficients times the remainder past x^-(D+K-1) (the
    products that the cut drops), plus k! times the numerator's own
    remainder.  Per harmonic factor those coefficients are, relative to its
    powers of ln x, 1 + gamma/ln n and 1/(2 ln n) for H_x, zeta(m) and 1/(m-1)
    (m = 2; 0 beyond) for H_x^(m), eta(m) and 1/2 (m = 1; 0 beyond) for
    H-bar_x^(m).  K is the least order, up to _MAX_TAIL_ORDER, at which the
    first two parts integrated past n meet half, and grows while the third,
    from the numerator's expansion built at K, takes the sum past it.
    """
    alt, D = summand.alternating, shifts.degree
    # the powers of ln x in each monomial's expansion: one per plain H_x
    powers = [0 if alt else orders.count(1) for _, orders in summand.numerator]
    g = max(powers)
    w0 = w1 = 0.0
    for (c, orders), p in zip(summand.numerator, powers):
        lead, first = abs(c) * logn ** (p - g), 0.0
        for m in orders:
            if alt:
                c0, c1 = alt_zeta(m), 0.5 * (m == 1)
            else:
                c0, c1 = ((1.0 + EULER_GAMMA / logn, 0.5 / logn) if m == 1
                          else (riemann_zeta(m), 1.0 * (m == 2)))
            lead, first = lead * c0, first * c0 + lead * c1
        w0, w1 = w0 + lead, w1 + first

    def estimate(K: int) -> tuple[float, float]:
        # the first two parts at K, and the integral that takes them past n
        rest = w0 * _denominator_remainder(shifts, K, n)
        if w1:
            rest += w1 * _denominator_remainder(shifts, K - 1, n)
        return rest, _basis_integral(D + K, g, n, logn)

    seen: dict = {}  # each order's estimate, computed once

    def fits(K: int) -> bool:
        seen[K] = estimate(K)
        return math.prod(seen[K]) <= half

    # start where (s_max/n)^K alone brings the leading part to half
    guess = 1
    if 0.0 < shifts.s_max < n and D > 1:
        top = w0 * shifts.scale * n ** (1 - D) * logn ** g / (D - 1)
        if top > half:
            guess = min(_MAX_TAIL_ORDER,
                        math.ceil(math.log(half / top) / math.log(shifts.s_max / n)))
    # then bisect only on the side of the guess where the least order lies
    if not fits(guess):
        lo, hi = guess + 1, _MAX_TAIL_ORDER
    elif guess > 1 and fits(guess - 1):
        lo, hi = 1, guess - 1
    else:
        lo = hi = guess
    K = _least(fits, lo, hi)
    rest, integral = seen[K] if K in seen else estimate(K)
    while True:
        num = _numerator_expansion(summand, K, n, logn)
        if (num is None or K == _MAX_TAIL_ORDER
                or (rest + shifts.scale * num.eps) * integral <= half):
            return K, num
        K += 1
        rest, integral = estimate(K)


def _numerator_expansion(summand: Summand, K: int, n: float,
                         logn: float) -> _Expansion | None:
    """The numerator for x >= n, cut at x^-K; None for the numerator 1.
    Each order's harmonic expansion is built once, each monomial is the
    product of its factors, and the numerator their sum with the
    coefficients."""
    if summand.numerator == ((1.0, ()),):
        return None
    factors = {m: _harmonic_expansion(m, summand.alternating, K, n, logn)
               for _, orders in summand.numerator for m in orders}
    monomials = []
    for c, orders in summand.numerator:
        mono = factors[orders[0]] if orders else _Expansion({(0, 0, 0): 1.0}, 0, 0, K, 0.0)
        for m in orders[1:]:
            mono = _product(mono, factors[m], n, logn)
        monomials.append((c, mono))
    if len(monomials) == 1 and monomials[0][0] == 1.0:
        return monomials[0][1]
    return _sum(monomials, logn)


def _sum(parts: list[tuple[float, _Expansion]], logn: float) -> _Expansion:
    # sum c e over expansions cut at the same v and J; each remainder is
    # taken to the largest g, (ln x)^g' <= (ln n)^(g'-g) (ln x)^g for g' <= g
    g = max(e.g for _, e in parts)
    terms: dict = {}
    eps = 0.0
    for c, e in parts:
        eps += abs(c) * e.eps * logn ** (e.g - g)
        for key, a in e.coefs.items():
            terms[key] = terms.get(key, 0.0) + c * a
    return _Expansion(terms, parts[0][1].v, g, parts[0][1].J, eps)


def _tail(summand: Summand, shifts: _Shifts, n: int,
          budget: float) -> tuple[float, float, float] | None:
    """The sum of the summand over x > n, a bound on its error and the sum of
    the absolute values of its parts (for the roundoff allowance); None when
    n is too small for the expansion.

    The expansion is cut at x^-(D+K), K sized so that its remainder meets
    half the budget (_order), from the leading coefficients before anything
    is built; each expansion is then built once at K, and the denominator's
    series multiplies the numerator once.  Should the built remainder still
    exceed half the budget, K grows one order at a time, up to
    _MAX_TAIL_ORDER.  Each summation stops within a quarter of the budget.
    """
    x, logn = float(n), math.log(n)
    K, num = _order(summand, shifts, x, logn, 0.5 * budget)
    while True:
        e = _denominator_expansion(shifts, K, x)
        if e is None:
            return None
        if num is not None:
            e = _product(num, e, x, logn)
        if e.J * logn < e.g:  # x^-J (ln x)^g must fall on [n, inf)
            return None
        rest = e.eps * _basis_integral(e.J, e.g, x, logn)
        if rest <= 0.5 * budget or K == _MAX_TAIL_ORDER:
            break
        K += 1  # the sized order fell short
        num = _numerator_expansion(summand, K, x, logn)
    parts: list = [None, None]  # the plain and the (-1)^x parts, as (j0, rows)
    for (p, j, l), c in e.coefs.items():
        if parts[p] is None:
            parts[p] = (e.v, [[0.0] * (e.J - e.v) for _ in range(e.g + 1)])
        parts[p][1][l][j - e.v] = c
    plain, plain_bound, mass = _em_tail(parts[0], x, logn, 0.25 * budget)
    alt, alt_bound = _boole_tail(parts[1], n, logn, 0.25 * budget)
    if parts[1] is not None:
        mass += _abs_integral(parts[1], x, logn)
    return plain + alt, plain_bound + alt_bound + rest, mass


def truncated_series(summand: Summand, config: SeriesConfig) -> EvalResult:
    """Partial sum of the summand over n = 1..N plus its tail past N, with N
    doubled from config.min_terms until the certified error meets the target.

    The partial sum runs in Python floats (_partial_terms), continued from
    one N to the next, with one compensated running sum per numerator order
    shared by the monomials; math.fsum totals the terms and the tail.  The
    tail expands the summand for x >= N in powers of 1/x and ln x, times
    (-1)^x for the alternating parts (_harmonic_expansion,
    _denominator_expansion), at an order sized before anything is built
    (_order), adds the monomials with their coefficients, and sums each part
    in closed form by Euler-Maclaurin or Boole summation (_em_tail,
    _boole_tail).  The error estimate is the expansion's remainder summed
    over n > N (at most its integral from N), the summation remainders, a
    roundoff allowance of 64 eps times the absolute size of the tail's
    parts, and the roundoff of the partial sum.  A shift that is not small
    next to N leaves no expansion at that N, and N doubles; when it leaves
    none even at config.max_terms, nothing is summed.  config.max_terms caps
    N; the last step stops exactly at the cap.

    Roundoff, with scale = max(sum s, |value|), s the terms' sizes (|t| for
    one monomial), and u = eps/2 the float64 unit roundoff: a computed term
    is off by at most gamma_c s <= 2 c u s = c eps s while c u <= 1/2,
    c = _roundings(summand, N), which counts each harmonic number's own
    error bound (_harmonic_roundings); fsum rounds the total once, by at
    most u |value|.  The bound (c + 1) eps scale covers both, and the
    difference between sum s and its computed sum.  A term that overflows
    or underflows is off by at most float_info.min times sum |c| (1 + ln
    N)^len(orders) over the monomials, and the bound adds that once per
    term: no H_n^(m) exceeds 1 + ln N, the reciprocal binomial is at most 1,
    and a term whose denominator overflowed to inf is at most its numerator
    over float_info.max.

    Raises ConvergenceError when the estimate at the cap still misses
    config.target_tol, when no N up to the cap leaves a tail expansion, or
    when the denominator degree would leave a divergent tail, and
    OverflowError from degree _MAX_DEGREE on.
    """
    shifts = _shifts(summand)
    d = shifts.degree
    if d < 2:
        raise ConvergenceError(f"denominator degree {d} < 2: tail does not converge")
    if d >= _MAX_DEGREE:
        raise OverflowError(f"denominator degree {d} >= {_MAX_DEGREE}: 4093.0**d leaves "
                            f"the float range")
    n_cap = int(config.max_terms)
    # rho falls as K grows and as N grows: with rho >= 1 at the cap and the
    # largest order, no N has a tail
    if _denominator_remainder(shifts, _MAX_TAIL_ORDER, n_cap) == math.inf:
        raise ConvergenceError(
            f"truncated series: shift {shifts.s_max:.3g} is not small next to N "
            f"up to max_terms={n_cap}, so the tail has no expansion")
    steps = [min(int(config.min_terms), n_cap)]
    while steps[-1] < n_cap:
        steps.append(min(2 * steps[-1], n_cap))

    running: dict[int, tuple[float, float]] = {}
    terms: list[float] = []
    size = 0.0
    start = 1
    est = math.inf
    for n_stop in steps:
        block, block_size = _partial_terms(summand, start, n_stop, running)
        terms += block
        size += block_size
        start = n_stop + 1
        tail = _tail(summand, shifts, n_stop, 0.25 * config.target_tol)
        if tail is None:
            continue
        tail_value, tail_bound, tail_mass = tail
        value = math.fsum(itertools.chain(terms, (tail_value,)))
        scale = max(size, abs(value))
        logs = 1.0 + math.log(n_stop)
        roundoff = ((_roundings(summand, n_stop) + 1.0) * _FLOAT_EPS * scale
                    + n_stop * sys.float_info.min
                    * sum(abs(c) * logs ** len(orders) for c, orders in summand.numerator))
        est = tail_bound + 64.0 * _FLOAT_EPS * tail_mass + roundoff
        if est <= config.target_tol:
            return EvalResult(value=value, abs_error_estimate=est, method=Method.TRUNCATED,
                              work=n_stop)
    raise ConvergenceError(
        f"truncated series: certified error {est:.3e} exceeds target "
        f"{config.target_tol:.3e} at max_terms={n_cap}"
    )


class Integrand(str, enum.Enum):
    LOG_POW_MOMENT = "log_pow_moment"          # x^(a-1) ln^m(1-x) on (0,1)


def _build_integrand(integrand_id: Integrand, params: Mapping[str, float]):
    """The integrand as f(x, 1 - x), taking and returning lists over the nodes."""
    from .catalog import is_number

    a, m = params.get("a"), params.get("m")
    # the comparison and m % 1 stay exact for an int past the float range
    if not (is_number(a) and abs(a) <= sys.float_info.max and is_number(m) and m % 1 == 0):
        raise DomainError(f"log-power moment requires a finite number a and an integer m, "
                          f"got a={a!r}, m={m!r}")
    a, m = float(a), int(m)
    if not a > 0:
        raise DomainError("log-power moment requires a > 0")
    if m > 6:
        raise DomainError("log-power moment supports m <= 6")
    p = a - 1.0
    return lambda x, omx: [xi ** p * math.log(oi) ** m for xi, oi in zip(x, omx)]


@lru_cache(maxsize=None)
def _tanh_sinh_nodes(level: int, nested: bool) -> tuple[tuple[float, ...], ...]:
    """Abscissae x, 1 - x and weights of tanh-sinh level `level` on (0, 1).

    The nodes sit at t = j*2^-level, j >= 0, up to the first j whose
    pi/2 sinh t exceeds 350, whose weight falls below 1e-320 or whose 1 - x
    is 0; each j > 0 gives the node pair (x, 1-x) and (1-x, x).  nested keeps
    only odd j, the nodes this level adds to level - 1: the cut-offs are
    monotone in t, so levels 3..L nested hold exactly the nodes of level L.
    The cache holds at most 20 keys, levels 3.._TANH_SINH_MAX_LEVEL.
    """
    h = 2.0 ** (-level)
    x, omx, w = [], [], []
    for j in itertools.count():
        t = j * h
        pis = 0.5 * math.pi * math.sinh(t)
        if pis > 350.0:
            break
        ch = math.cosh(pis)
        wj = 0.25 * math.pi * math.cosh(t) / (ch * ch)
        e2 = math.exp(-2.0 * pis)
        omxj = e2 / (1.0 + e2)
        if not (wj >= 1e-320 and omxj > 0.0):
            break
        if nested and not j % 2:
            continue
        x.append(1.0 / (1.0 + e2))       # (1 + tanh(pis)) / 2
        omx.append(omxj)
        w.append(wj)
    mirror = 0 if nested else 1  # j = 0 is its own mirror
    return tuple(x + omx[mirror:]), tuple(omx + x[mirror:]), tuple(w + w[mirror:])


_TANH_SINH_MAX_LEVEL = 12  # finest level; the step is 2^-12


def tanh_sinh(f: Callable[[Sequence[float], Sequence[float]], Sequence[float]],
              tol: float) -> tuple[float, float, int]:
    """Integrate f(x, 1-x) over (0, 1) with nested tanh-sinh levels.

    f takes sequences of nodes and returns the integrand at each; it receives
    both x and 1-x so endpoint singularities see full precision.  Level 3
    evaluates all its nodes in one call; each later level halves the step and
    evaluates only the nodes it adds, S_L = S_(L-1)/2 + h_L sum_new w f.  The
    run stops when two levels agree within tol/4 (relative above 1).  Returns
    (value, abs_error_estimate, nodes evaluated), each node evaluated once.
    Raises DomainError when the integrand overflows or is undefined at a node,
    whether it returns inf or nan there or raises an ArithmeticError (a power
    past the float range, 0 to a negative power).
    """
    prev = None
    work = 0
    for level in range(3, _TANH_SINH_MAX_LEVEL + 1):
        x, omx, w = _tanh_sinh_nodes(level, nested=prev is not None)
        try:
            added = 2.0 ** (-level) * math.fsum(_mul(w, f(x, omx)))
        except (ArithmeticError, ValueError):  # ValueError: fsum of inf and -inf
            added = math.nan
        if not math.isfinite(added):
            raise DomainError(f"tanh-sinh: the integrand is not finite at a level-{level} node")
        work += len(x)
        if prev is None:
            prev = added
            continue
        value = 0.5 * prev + added
        if abs(value - prev) <= 0.25 * tol * max(1.0, abs(value)):
            est = 2.0 * abs(value - prev) + 16.0 * _FLOAT_EPS * max(1.0, abs(value))
            return value, est, work
        prev = value
    raise ConvergenceError(
        f"tanh-sinh did not reach tol={tol:.1e} by level {_TANH_SINH_MAX_LEVEL}")


def quadrature(integrand_id: Integrand | str, params: Mapping[str, float],
               tol: float = 1e-11) -> EvalResult:
    """Tanh-sinh quadrature of a catalog integrand, singular endpoints included.

    Raises DomainError for an unknown id, a tol below 1e-13, or params the
    integrand does not take: for LOG_POW_MOMENT, a missing "a" or "m", an "a"
    that is not a finite number > 0, or an "m" that is not an integer <= 6 (a
    bool is not a number here).
    """
    if tol < 1e-13:
        raise DomainError("quadrature tol must be >= 1e-13")
    try:
        integrand_id = Integrand(integrand_id)
    except ValueError as exc:
        raise DomainError(f"unknown integrand id {integrand_id!r}") from exc
    f = _build_integrand(integrand_id, params)
    value, est, work = tanh_sinh(f, tol)
    return EvalResult(value=value, abs_error_estimate=est, method=Method.QUADRATURE, work=work)


# --------------------------------------------------------------------------
# verification driver
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GridResult:
    records: tuple[VerificationRecord, ...]
    confirmed: int
    refuted: int
    inconclusive: int


def _inconclusive(case: IdentityCase, exc: Exception, closed=math.nan) -> VerificationRecord:
    return VerificationRecord(
        case=case, closed_value=closed, oracle_value=math.nan,
        abs_residual=math.nan, rel_residual=math.nan,
        status=Status.INCONCLUSIVE, oracle_error_bound=math.inf,
        reason=f"{type(exc).__name__}: {exc}",
    )


def verify_identity(case: IdentityCase, config: SeriesConfig | None = None) -> VerificationRecord:
    """Evaluate one catalog identity both ways and classify the residual.

    CONFIRMED when the residual meets the tolerance (relative above 1,
    absolute below); REFUTED only when the oracle's own certified error is at
    least ten times smaller than the tolerance; INCONCLUSIVE otherwise,
    including when preconditions fail or the oracle cannot converge, and
    when the case's parameters are not a mapping of names to numbers or its
    tol is not a finite number > 0.  Raises DomainError for an unknown id.
    """
    from . import catalog

    ident = catalog.get(case.identity_id)
    params, tol = case.params, case.tol
    try:
        # a dict under the declared names and a float tol skip the generic
        # checks, which only decide whether **params and tol may be used
        if ((type(params) is not dict or params.keys() != ident.params.keys())
                and (not isinstance(params, Mapping)
                     or not all(isinstance(k, str) for k in params))):
            catalog.check_params(ident, params)
        if not ((type(tol) is float or catalog.is_number(tol)) and 0.0 < tol < math.inf):
            raise DomainError(f"tol must be a finite number > 0, got {tol!r}")
        config = config or SeriesConfig()
        oracle_cfg = SeriesConfig(max_terms=config.max_terms, min_terms=config.min_terms,
                                  target_tol=tol / 10.0)
        ident.validate(**params)
        closed = ident.closed(case.variant, **params)
    except (DomainError, PoleError, ConvergenceError) as exc:
        return _inconclusive(case, exc)
    try:
        oracle_res = ident.oracle(oracle_cfg, **params)
    except (ConvergenceError, DomainError, PoleError) as exc:
        return _inconclusive(case, exc, closed=closed)

    abs_res = abs(closed - oracle_res.value)
    denom = max(1.0, abs(oracle_res.value))
    rel_res = abs_res / abs(oracle_res.value) if oracle_res.value != 0.0 else math.inf
    bound = oracle_res.abs_error_estimate
    reason = ""
    if abs_res <= tol * denom:
        status = Status.CONFIRMED
    elif bound <= tol / 10.0:
        status = Status.REFUTED
    else:
        status = Status.INCONCLUSIVE
        reason = (f"residual {abs_res:.3e} misses tol {tol:.3e} but oracle bound "
                  f"{bound:.3e} exceeds tol/10")
    return VerificationRecord(
        case=case, closed_value=closed, oracle_value=oracle_res.value,
        abs_residual=abs_res, rel_residual=rel_res, status=status,
        oracle_error_bound=bound, terms=oracle_res.work, reason=reason,
    )


def grid_verify(cases: Sequence[IdentityCase], config: SeriesConfig | None = None) -> GridResult:
    """Run all cases, preserving input order, and append aggregate counts."""
    records = tuple(verify_identity(c, config) for c in cases)
    return GridResult(
        records=records,
        confirmed=sum(r.status is Status.CONFIRMED for r in records),
        refuted=sum(r.status is Status.REFUTED for r in records),
        inconclusive=sum(r.status is Status.INCONCLUSIVE for r in records),
    )
