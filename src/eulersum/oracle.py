"""Independent ground-truth engines and the identity-verification driver.

Three evaluation routes, none of which shares code with the closed forms it
checks: truncated summation with an analytic log-power tail, the moment
series of eq1.19 and eq1.23 with a geometric tail bound, and tanh-sinh
quadrature of the one integrand a catalog oracle still runs, eq2.2's
log-power moment x^(a-1) ln^m(1-x) on (0, 1).  The series engine sums a
declared ``Summand`` (harmonic numbers, alternating ones included, over
shifted powers and an optional reciprocal binomial) and reads its tail model
from the summand.  Only its running harmonic prefix sums are longdouble;
each is rounded to float64 once, and the terms and their sums are float64,
with a roundoff bound derived from the operations of one term and the depth
of the block sums.  From specfun this module takes only the constant
EULER_GAMMA, none of the zeta, alternating-series, polylog and h_func
evaluators the closed sides are built on.

The quadrature nests its levels, so each node is evaluated once, and calls
its integrand once per level on numpy arrays of nodes.

numpy is imported inside the engine functions, not at module level: the
catalog and the CLI import this module, and a closed-form evaluation
(``eulersum eval --method closed``) never needs arrays.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from .errors import ConvergenceError, DomainError, PoleError
from .specfun import EULER_GAMMA

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
    min_terms: int = 1 << 12     # first N of the doubling search
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
class TailParams:
    growth: int = 0        # power of (ln x + gamma) in the term model
    denom_degree: int = 2  # power-law decay of the denominator

    def __post_init__(self):
        if not 0 <= self.growth <= 3:
            raise DomainError("tail growth power must be 0..3")


_CHUNK = 1 << 11
"""Most indices truncated_series and moment_series sum in one block.

Small blocks keep each block's temporaries (a few float64 arrays, 16 KiB
each at 2^11, and one or two longdouble arrays of 32 KiB for the harmonic
prefix sums) inside the malloc heap.  With blocks of 2^20 the temporaries of
a few-thousand-term sum pushed the heap top past glibc's trim threshold on
every call; free() handed the pages back and the next call faulted them in
again.  In a process that had made no large allocation before, on a 2-vCPU
x86-64 host, that made eight 8192-term series 22 % slower.  The harmonic
prefix sums run across the blocks in order, so the block size moves only
the float64 block sums, by roundoff.
"""


@dataclass(frozen=True)
class Summand:
    """c_n / prod_j (n + shift_j)^power_j, times 1/C(n+k+b, k) when binom = (k, b).

    c_n is the product of H_n^(m) over `orders` (1 when empty), or of the
    alternating H-bar_n^(m) = sum_{j<=n} (-1)^(j-1)/j^m when `alternating`.
    A shift is a number, or a tuple of numbers added to n in order: n + a + k
    is the shift (a, k).  truncated_series sums it and takes its tail model
    from tail().
    """

    orders: tuple[int, ...] = ()
    den: tuple[tuple, ...] = ()
    binom: tuple[int, float] | None = None
    alternating: bool = False

    def __post_init__(self):
        for m in self.orders:
            if m < 1 or m != int(m):
                raise DomainError(f"harmonic order must be an integer >= 1, got {m}")

    def tail(self) -> TailParams:
        # H_n grows like ln n; H_n^(m), m > 1, and the alternating sums tend to constants
        growth = 0 if self.alternating else self.orders.count(1)
        degree = sum(int(power) for _, power in self.den) + int(self.binom[0] if self.binom else 0)
        return TailParams(growth=growth, denom_degree=degree)

    def terms(self, ns: np.ndarray, harmonics: Mapping[int, np.ndarray]) -> np.ndarray:
        """The float64 terms at the float64 indices ns, given harmonics[m] =
        H_n^(m) (H-bar_n^(m) when alternating) at the same indices for each
        order m in `orders`."""
        num = None
        for m in dict.fromkeys(self.orders):  # a repeated order is a power: H_n^2 = h1 * h1
            h = _ipow(harmonics[int(m)], self.orders.count(m))
            num = h if num is None else num * h
        if self.binom is not None:
            k, b = self.binom
            rb = _rbinom(ns, int(k), float(b))
            num = rb if num is None else num * rb
        den = None
        for shift, power in self.den:
            x = ns
            for s in shift if isinstance(shift, tuple) else (shift,):
                if s:  # n + 0 is n
                    x = x + s
            x = _ipow(x, int(power))
            den = x if den is None else den * x
        if den is None:
            return num
        return (1.0 if num is None else num) / den


def _ipow(x, p: int):
    # x**p for an integer p >= 1 by squaring and multiplying; whatever the
    # order of the products, x^p carries at most p - 1 roundings of its own
    result = None
    while True:
        if p & 1:
            result = x if result is None else result * x
        p >>= 1
        if not p:
            return result
        x = x * x


def _rbinom(ns, k: int, b: float):
    # 1/binom(n+k+b, k) = k! / prod_{i=1..k} (n+b+i), stable for any n
    import numpy as np

    arr = np.full(ns.shape, float(math.factorial(k)))
    for i in range(1, k + 1):
        arr /= ns + (b + i)
    return arr


def _roundings(summand: Summand) -> int:
    """A bound on the relative error of one float64 term, in units of eps/2.

    Each rounding is at most eps/2 of its result, and x^p carries p times the
    error already in x.  The count: each H_n^(m) rounded to float64 once,
    so j for H^j, plus the j - 1 multiplies of that power and one per
    further numerator factor; for the binomial, one for k! and three per
    step (the scalar b + i, the add and the divide); for a denominator factor
    of r shift adds raised to p, p*r for the adds and p - 1 for the power;
    one per further denominator factor, and one for the quotient.  With
    n >= 1 and shifts and b >= 0, as in every catalog summand, each partial
    sum n + s_1 + ... is at most the factor it ends in, so an add's rounding
    is at most eps/2 of that factor.
    """
    orders = len(summand.orders)
    count = max(0, 2 * orders - 1)
    if summand.binom is not None:
        count += 1 + 3 * int(summand.binom[0]) + (orders > 0)
    for i, (shift, power) in enumerate(summand.den):
        adds = sum(1 for s in (shift if isinstance(shift, tuple) else (shift,)) if s)
        count += int(power) * (adds + 1) - 1 + (i > 0)
    return count + (len(summand.den) > 0)


def _pairwise_depth(n: int) -> int:
    """A bound on the additions any term passes through in numpy's sum of at
    most n float64 terms.  The reduction adds its first element once; its
    pairwise sum halves a run (the first half rounded down to a multiple of
    8, so a part is at most n/2^j + 16 after j halvings) until it is at most
    128 long, and sums such a leaf of L terms with eight interleaved
    accumulators: L//8 - 1 adds in one, three to join the eight and L % 8
    leftovers, at most 24 in all."""
    return 1 + 24 + max(0, math.ceil(math.log2(n / 112)))


def _block_terms(summand: Summand, ns_int: np.ndarray,
                 prefix: dict[int, np.longdouble]) -> np.ndarray:
    """The summand's float64 terms on the block ns_int; prefix maps each
    numerator order to its harmonic sum before the block and is moved past it.

    Only the running sums are longdouble: 1/n is one longdouble reciprocal,
    1/n^m its m-th power by products, and each sum H_n^(m) is rounded to
    float64 once.  Everything after that is float64, and a term that
    overflows or underflows gives 0 or a subnormal without a warning.
    """
    import numpy as np

    harmonics = {}
    if prefix:
        inv = np.reciprocal(ns_int.astype(np.longdouble))
        even = int(ns_int[0]) % 2  # the first even n in the block is at this offset
    for m in sorted(prefix, reverse=True):  # order 1 last: it sums inv in place
        r = _ipow(inv, m)
        if summand.alternating:
            r[even::2] *= -1
        r[0] += prefix[m]
        np.cumsum(r, out=r)
        prefix[m] = r[-1]
        harmonics[m] = r.astype(float)
    with np.errstate(over="ignore", under="ignore"):
        return summand.terms(ns_int.astype(float), harmonics)


def _log_power_integral(g: int, d: int, x0: float) -> float:
    # integral_x0^inf (ln x + gamma)^g / x^d dx by repeated integration by parts
    if g == 0:
        return x0 ** (1 - d) / (d - 1)
    L = math.log(x0) + EULER_GAMMA
    return L**g * x0 ** (1 - d) / (d - 1) + g / (d - 1) * _log_power_integral(g - 1, d, x0)


def _model(x: float, g: int, d: int) -> float:
    return (math.log(x) + EULER_GAMMA) ** g / x**d


def truncated_series(summand: Summand, config: SeriesConfig) -> EvalResult:
    """Partial sum of the summand over n = 1..N plus an analytic tail
    correction, with N doubled from config.min_terms until the certified
    error meets the target.

    The sum runs in blocks of at most _CHUNK indices, with one running
    longdouble harmonic prefix sum per numerator order; each prefix value is
    rounded to float64 once and the terms, their block sums (numpy's
    pairwise sum) and the sum of the block sums (math.fsum) are float64.
    The tail is the summand's log-power model (summand.tail()) integrated
    from the midpoint N + 1/2; the error estimate is twice the disagreement
    with the same evaluation truncated at N/2, plus the tail fit's floor and
    a roundoff bound.  Each doubling extends the running sums, and the
    previous N is the new N/2 checkpoint.  config.max_terms caps N; the last
    step stops exactly at the cap.

    Roundoff, with scale = max(sum |t|, |value|) and u = eps/2 the float64
    unit roundoff (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 3-4): a computed term is t(1 + d) with |d| <= c u, c from
    _roundings(summand); a block sum of n such terms is off by at most
    p u sum |t|, p = _pairwise_depth(n); fsum rounds the total once.  The
    bound (c + p + 1) eps scale is twice that first-order bound, which covers
    the second-order terms while (c + p + 1) u < 1/2.  The longdouble prefix
    sums add 128 ld_eps sqrt(N) scale, an estimate of their roundoff rather
    than a bound.  A term that overflows or underflows is off by at most
    float_info.min (1 + ln N)^len(orders), and the bound adds that once per
    term: no H_n^(m) exceeds 1 + ln N, the reciprocal binomial is at most 1,
    and a term whose denominator overflowed to inf is at most its numerator
    over float_info.max.

    Raises ConvergenceError when the estimate at the cap still misses
    config.target_tol or when the denominator degree would leave a divergent
    tail.
    """
    import numpy as np

    tail = summand.tail()
    g = tail.growth
    d = tail.denom_degree
    if d < 2:
        raise ConvergenceError(f"denominator degree {d} < 2: tail does not converge")
    n_cap = int(config.max_terms)
    steps = [min(int(config.min_terms), n_cap)]
    while steps[-1] < n_cap:
        steps.append(min(2 * steps[-1], n_cap))

    def half(n: int) -> int:
        return max(8, n // 2)

    boundaries = sorted({b for n in steps for b in (half(n), n)})
    evaluate = set(steps)

    ld = np.longdouble
    ld_eps = float(np.finfo(ld).eps)
    roundings = _roundings(summand) + _pairwise_depth(min(_CHUNK, n_cap)) + 1  # c + p + 1
    prefix = {int(m): ld(0.0) for m in summand.orders}
    sums = []
    abs_total = 0.0
    checkpoints: dict[int, tuple[float, tuple[float, ...]]] = {}  # N -> (sum, last 4 terms)

    def tail_corrected(n_stop: int) -> tuple[float, float]:
        s, t4 = checkpoints[n_stop]
        # two-parameter fit t(x) ~ model(x) * (lam + mu/x) from parity-averaged
        # pairs of trailing terms; the pair means keep alternating-numerator
        # oscillation out of the fit
        x = float(n_stop)
        t_a = 0.5 * (t4[0] + t4[1])
        m_a = 0.5 * (_model(x - 3.0, g, d) + _model(x - 2.0, g, d))
        x_a = x - 2.5
        t_b = 0.5 * (t4[2] + t4[3])
        m_b = 0.5 * (_model(x - 1.0, g, d) + _model(x, g, d))
        x_b = x - 0.5
        r_a = t_a / m_a if m_a else 0.0
        r_b = t_b / m_b if m_b else 0.0
        mu = (r_a - r_b) * x_a * x_b / (x_b - x_a)
        lam = r_b - mu / x_b
        x0 = x + 0.5
        correction = lam * _log_power_integral(g, d, x0) + mu * _log_power_integral(g, d + 1, x0)
        floor = 8.0 * (abs(lam) + abs(mu) / x0) * _log_power_integral(g, d + 2, x0)
        return s + correction, floor

    start = 1
    buf = np.zeros(0)
    for boundary in boundaries:
        while start <= boundary:
            stop = min(boundary, start + _CHUNK - 1)
            t = _block_terms(summand, np.arange(start, stop + 1, dtype=np.int64), prefix)
            sums.append(float(t.sum()))
            abs_total += float(np.abs(t).sum())
            buf = np.concatenate([buf, t[-4:]])[-4:]
            start = stop + 1
        checkpoints[boundary] = (math.fsum(sums), tuple(float(v) for v in buf))
        if boundary not in evaluate:
            continue
        value_half, _ = tail_corrected(half(boundary))
        value, tail_floor = tail_corrected(boundary)
        scale = max(abs_total, abs(value))
        roundoff = ((128.0 * ld_eps * math.sqrt(boundary) + roundings * _FLOAT_EPS) * scale
                    + boundary * sys.float_info.min
                    * (1.0 + math.log(boundary)) ** len(summand.orders))
        est = 2.0 * abs(value - value_half) + tail_floor + roundoff
        if est <= config.target_tol:
            return EvalResult(value=value, abs_error_estimate=est, method=Method.TRUNCATED,
                              work=boundary)
    raise ConvergenceError(
        f"truncated series: certified error {est:.3e} exceeds target "
        f"{config.target_tol:.3e} at max_terms={n_cap}"
    )


_MOMENT_MAX_TERMS = 200_000  # most terms moment_series sums


def moment_series(x: float, a: float, c: float, m: int, target: float) -> EvalResult:
    """sum_{k>=1} x^(k+a+c) / ((k+a)^m (k+a+c)) for 0 < x < 1, a >= 0, c > 0.

    It is the integral of H_m(t, a) t^(c-1) over (0, x), and at a = 0 that of
    Li_m(t) t^(c-1), integrated term by term: the left sides of eq1.19 and
    eq1.23 with c = n + b.  The terms are positive and each is at most x times
    the one before, so the rest after K terms is at most t_(K+1)/(1-x); as
    k+a+c >= k+a it is also at most x^(K+1+a+c) / (m (K+a)^m).  K is fixed in
    log space before anything is summed: the least count at which the smaller
    of the two bounds is at most target/2, found by bisection below the count
    at which x^(K+1+a+c)/(1-x) alone is (or below _MOMENT_MAX_TERMS).

    The terms are summed in float64 blocks of at most _CHUNK indices and the
    block sums with math.fsum.  The bound is that tail plus a first-order
    roundoff bound of the per-term operations and the block sums, plus
    sys.float_info.min per term for terms below the normal range (an
    underflowed power or an overflowed (k+a)^m gives 0), so it is > 0 even
    when the sum underflows to 0.  Raises DomainError outside the domain and
    ConvergenceError when more than _MOMENT_MAX_TERMS terms are needed: for
    any m, wherever the smaller bound at K = 200 000 exceeds target/2.  As
    x -> 1 the power-law bound there tends to 1/(m 200000^m), so at target
    1e-11 (eq1.19's and eq1.23's oracles at tol 1e-9) m = 1 fails from
    x ~ 0.99994 and m = 2 from x ~ 0.999995, while m >= 3 always converges;
    smaller targets lose a region near 1 for every m.
    """
    if not 0.0 < x < 1.0:
        raise DomainError("lemma moment requires 0 < x < 1")
    if not (m >= 1 and float(m).is_integer()):
        raise DomainError(f"lemma moment requires integer m >= 1, got {m}")
    if not (math.isfinite(a) and a >= 0.0 and math.isfinite(c) and c > 0.0):
        raise DomainError(f"moment series requires finite a >= 0 and c > 0, got a={a}, c={c}")
    if not target > 0.0:
        raise DomainError("moment series target must be > 0")
    m = int(m)
    lx, l1x = math.log(x), math.log1p(-x)
    log_target = math.log(target) - math.log(2.0)

    def log_tail(k: int) -> float:
        e = (k + 1 + a + c) * lx
        geometric = e - m * math.log(k + 1 + a) - math.log(k + 1 + a + c) - l1x
        power = e - math.log(m) - m * math.log(k + a)
        return min(geometric, power)

    # the geometric bound with its denominators dropped needs at most k0 terms
    k0 = (log_target + l1x) / lx - 1.0 - a - c
    terms = max(1, math.ceil(k0)) if k0 < _MOMENT_MAX_TERMS else _MOMENT_MAX_TERMS
    if log_tail(terms) > log_target:
        terms = _MOMENT_MAX_TERMS
        if log_tail(terms) > log_target:
            raise ConvergenceError(f"moment series needs more than {_MOMENT_MAX_TERMS} "
                                   f"terms at x={x!r}")
    lo = 0  # log_tail(lo) misses the target, or lo = 0; log_tail(terms) meets it
    while terms - lo > 1:
        mid = (lo + terms) // 2
        lo, terms = (lo, mid) if log_tail(mid) <= log_target else (mid, terms)

    import numpy as np

    sums = []
    with np.errstate(over="ignore", under="ignore"):
        for start in range(1, terms + 1, _CHUNK):
            ka = np.arange(start, min(start + _CHUNK, terms + 1), dtype=float) + a
            kac = ka + c
            sums.append(float((x ** kac / (ka ** m * kac)).sum()))
    value = math.fsum(sums)
    # relative error per term, in units of eps: the two roundings of the
    # exponent k+a+c become (k+a+c)|ln x| in x^(k+a+c) (at most 745 where the
    # power did not underflow), k+a's rounding becomes m/2 in (k+a)^m, the two
    # pows add at most 4 ulp each and the adds, product and quotient 2 more;
    # fsum adds 1/2 and summing a block of n terms at most n/2
    log_power = min(745.0, -(terms + a + c) * lx)
    roundoff = (_FLOAT_EPS * (log_power + m + 12.0 + min(terms, _CHUNK)) * value
                + terms * sys.float_info.min)
    tail = math.exp(log_tail(terms) + 1e-9)  # e^1e-9 covers the log-space rounding
    return EvalResult(value=value, abs_error_estimate=tail + roundoff,
                      method=Method.TRUNCATED, work=terms)


class Integrand(str, enum.Enum):
    LOG_POW_MOMENT = "log_pow_moment"          # x^(a-1) ln^m(1-x) on (0,1)


def _build_integrand(integrand_id: Integrand, params: Mapping[str, float]):
    """The integrand as f(x, 1 - x), taking and returning arrays over the nodes."""
    import numpy as np

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
    return lambda x, omx: x ** (a - 1.0) * np.log(omx) ** m


@lru_cache(maxsize=None)
def _tanh_sinh_nodes(level: int, nested: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Abscissae x, 1 - x and weights of tanh-sinh level `level` on (0, 1).

    The nodes sit at t = j*2^-level, j >= 0, up to the first j whose
    pi/2 sinh t exceeds 350, whose weight falls below 1e-320 or whose 1 - x
    is 0; each j > 0 gives the node pair (x, 1-x) and (1-x, x).  nested keeps
    only odd j, the nodes this level adds to level - 1: the cut-offs are
    monotone in t, so levels 3..L nested hold exactly the nodes of level L.
    """
    import numpy as np

    h = 2.0 ** (-level)
    t = np.arange(math.ceil(math.asinh(700.0 / math.pi) / h) + 2) * h
    pis = 0.5 * math.pi * np.sinh(t)
    keep = pis <= 350.0
    t, pis = t[keep], pis[keep]
    ch = np.cosh(pis)
    w = 0.25 * math.pi * np.cosh(t) / (ch * ch)
    e2 = np.exp(-2.0 * pis)
    x = 1.0 / (1.0 + e2)       # (1 + tanh(pis)) / 2
    omx = e2 / (1.0 + e2)
    ok = (w >= 1e-320) & (omx > 0.0)
    stop = ok.size if ok.all() else int(ok.argmin())
    x, omx, w = x[:stop], omx[:stop], w[:stop]
    if nested:
        x, omx, w = x[1::2], omx[1::2], w[1::2]
    mirror = slice(0 if nested else 1, None)  # j = 0 is its own mirror
    nodes = (np.concatenate((x, omx[mirror])), np.concatenate((omx, x[mirror])),
             np.concatenate((w, w[mirror])))
    for arr in nodes:
        arr.flags.writeable = False
    return nodes


_TANH_SINH_MAX_LEVEL = 12  # finest level; the step is 2^-12


def tanh_sinh(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
              tol: float) -> tuple[float, float, int]:
    """Integrate f(x, 1-x) over (0, 1) with nested tanh-sinh levels.

    f takes arrays of nodes and returns the integrand at each; it receives
    both x and 1-x so endpoint singularities see full precision.  Level 3
    evaluates all its nodes in one call; each later level halves the step and
    evaluates only the nodes it adds, S_L = S_(L-1)/2 + h_L sum_new w f.  The
    run stops when two levels agree within tol/4 (relative above 1).  Returns
    (value, abs_error_estimate, nodes evaluated), each node evaluated once.
    Raises DomainError when the integrand overflows or is undefined at a node.
    """
    import numpy as np

    prev = None
    work = 0
    for level in range(3, _TANH_SINH_MAX_LEVEL + 1):
        x, omx, w = _tanh_sinh_nodes(level, nested=prev is not None)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            added = 2.0 ** (-level) * float((w * f(x, omx)).sum())
        if not math.isfinite(added):
            raise DomainError(f"tanh-sinh: the integrand is not finite at a level-{level} node")
        work += x.size
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
    try:
        if not isinstance(case.params, Mapping) or not all(isinstance(k, str)
                                                           for k in case.params):
            catalog.check_params(ident, case.params)
        if not (catalog.is_number(case.tol) and 0.0 < case.tol < math.inf):
            raise DomainError(f"tol must be a finite number > 0, got {case.tol!r}")
        oracle_cfg = replace(config or SeriesConfig(), target_tol=case.tol / 10.0)
        ident.validate(**case.params)
        closed = ident.closed(case.variant, **case.params)
    except (DomainError, PoleError, ConvergenceError) as exc:
        return _inconclusive(case, exc)
    try:
        oracle_res = ident.oracle(oracle_cfg, **case.params)
    except (ConvergenceError, DomainError, PoleError) as exc:
        return _inconclusive(case, exc, closed=closed)

    abs_res = abs(closed - oracle_res.value)
    denom = max(1.0, abs(oracle_res.value))
    rel_res = abs_res / abs(oracle_res.value) if oracle_res.value != 0.0 else math.inf
    bound = oracle_res.abs_error_estimate
    reason = ""
    if abs_res <= case.tol * denom:
        status = Status.CONFIRMED
    elif bound <= case.tol / 10.0:
        status = Status.REFUTED
    else:
        status = Status.INCONCLUSIVE
        reason = (f"residual {abs_res:.3e} misses tol {case.tol:.3e} but oracle bound "
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
