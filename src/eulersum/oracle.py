"""Independent ground-truth engines and the identity-verification driver.

Three evaluation routes, none of which share code with the closed forms they
check: chunked truncated summation with an analytic log-power tail,
alternating-series acceleration, and tanh-sinh quadrature.
"""
from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError
from .specfun import EULER_GAMMA, alternating_sum, alternating_sum_by_averaging, polylog

_LD = np.longdouble
_FLOAT_EPS = float(np.finfo(float).eps)
_LD_EPS = float(np.finfo(np.longdouble).eps)


class TailMode(str, enum.Enum):
    NONE = "none"
    EULER_MACLAURIN = "euler-maclaurin"
    LOG_POWER_INTEGRAL = "log-power-integral"


class AccelMode(str, enum.Enum):
    NONE = "none"
    ALTERNATING_CVZ = "alternating-cvz"


class Method(str, enum.Enum):
    CLOSED_FORM = "closed"
    TRUNCATED = "truncated"
    ACCELERATED = "accelerated"
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
    tail_mode: TailMode = TailMode.LOG_POWER_INTEGRAL
    accel: AccelMode = AccelMode.ALTERNATING_CVZ
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


_HARMONIC_ATTR = re.compile(r"h(b?)([1-9][0-9]*)")  # h3 -> H_n^(3), hb2 -> alternating


class SeriesEnv:
    """Per-chunk cumulative harmonic arrays with carries across chunks.

    Term callables receive (ns, env) where ns is the 1-based index block and
    env.harmonic(m) is H_n^(m), env.harmonic(m, alternating=True) the
    alternating sum_{j<=n} (-1)^(j-1)/j^m, for any order m >= 1 and each valid
    for exactly that block.  The attributes h<m> and hb<m> (h1, hb2, ...) name
    the same arrays.
    """

    def __init__(self):
        self._carry: dict[tuple[int, bool], np.longdouble] = {}
        self._ns = None
        self._ns_int = None
        self._cache: dict[tuple[int, bool], np.ndarray] = {}
        self._named: list[str] = []

    def _set_chunk(self, ns_int: np.ndarray, ns: np.ndarray):
        self._ns_int = ns_int
        self._ns = ns
        self._cache = {}
        for name in self._named:
            delattr(self, name)
        self._named = []

    def harmonic(self, m: int, alternating: bool = False) -> np.ndarray:
        key = (m, alternating)
        arr = self._cache.get(key)
        if arr is None:
            if m < 1 or m != int(m):
                raise DomainError(f"harmonic order must be an integer >= 1, got {m}")
            terms = self._ns ** _LD(-m) if m > 1 else 1.0 / self._ns
            if alternating:
                sign = np.where(self._ns_int & 1 == 1, _LD(1.0), _LD(-1.0))
                terms = terms * sign
            arr = self._carry.get(key, _LD(0.0)) + np.cumsum(terms)
            self._carry[key] = arr[-1]
            self._cache[key] = arr
        return arr

    def __getattr__(self, name: str):
        match = _HARMONIC_ATTR.fullmatch(name)
        if match is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        arr = self.harmonic(int(match.group(2)), alternating=bool(match.group(1)))
        # stored until the next chunk, so later reads skip this lookup
        setattr(self, name, arr)
        self._named.append(name)
        return arr


def _log_power_integral(g: int, d: int, x0: float) -> float:
    # integral_x0^inf (ln x + gamma)^g / x^d dx by repeated integration by parts
    if g == 0:
        return x0 ** (1 - d) / (d - 1)
    L = math.log(x0) + EULER_GAMMA
    return L**g * x0 ** (1 - d) / (d - 1) + g / (d - 1) * _log_power_integral(g - 1, d, x0)


def _model(x: float, g: int, d: int) -> float:
    return (math.log(x) + EULER_GAMMA) ** g / x**d


def truncated_series(
    term_fn: Callable[[np.ndarray, SeriesEnv], np.ndarray],
    config: SeriesConfig,
    tail: TailParams,
    chunk: int = 1 << 20,
) -> EvalResult:
    """Partial sum over n = 1..N plus an analytic tail correction, with N
    doubled from config.min_terms until the certified error meets the target.

    The tail is the scaled log-power model integral from the midpoint
    N + 1/2; the error estimate is twice the disagreement with the same
    evaluation truncated at N/2, plus drift and roundoff floors.  Each
    doubling extends the running prefix sums, and the previous N is the new
    N/2 checkpoint.  config.max_terms caps N; the last step stops exactly at
    the cap.  Raises ConvergenceError when the estimate at the cap still
    misses config.target_tol or when the denominator degree would leave a
    divergent tail.
    """
    g = tail.growth
    d = tail.denom_degree
    if d < 2:
        raise ConvergenceError(f"denominator degree {d} < 2: tail does not converge")
    if config.tail_mode is TailMode.EULER_MACLAURIN:
        g = 0
    n_cap = int(config.max_terms)
    steps = [min(int(config.min_terms), n_cap)]
    while steps[-1] < n_cap:
        steps.append(min(2 * steps[-1], n_cap))

    def half(n: int) -> int:
        return max(8, n // 2)

    boundaries = sorted({b for n in steps for b in (half(n), n)})
    evaluate = set(steps)

    env = SeriesEnv()
    total = _LD(0.0)
    abs_total = _LD(0.0)
    checkpoints: dict[int, tuple[float, tuple[float, ...]]] = {}  # N -> (sum, last 4 terms)

    def tail_corrected(n_stop: int) -> tuple[float, float]:
        s, t4 = checkpoints[n_stop]
        if config.tail_mode is TailMode.NONE:
            # conservative bound on the raw truncation error
            return s, abs(t4[-1]) * n_stop / (d - 1)
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
    buf = np.zeros(0, dtype=_LD)
    for boundary in boundaries:
        while start <= boundary:
            stop = min(boundary, start + chunk - 1)
            ns_int = np.arange(start, stop + 1, dtype=np.int64)
            ns = ns_int.astype(_LD)
            env._set_chunk(ns_int, ns)
            t = term_fn(ns, env)
            total += t.sum()
            abs_total += np.abs(t).sum()
            buf = np.concatenate([buf, t[-4:]])[-4:]
            start = stop + 1
        checkpoints[boundary] = (float(total), tuple(float(v) for v in buf))
        if boundary not in evaluate:
            continue
        value_half, _ = tail_corrected(half(boundary))
        value, tail_floor = tail_corrected(boundary)
        scale = max(float(abs_total), abs(value))
        roundoff = 128.0 * _LD_EPS * math.sqrt(boundary) * scale + 16.0 * _FLOAT_EPS * scale
        est = 2.0 * abs(value - value_half) + tail_floor + roundoff
        if est <= config.target_tol:
            return EvalResult(value=value, abs_error_estimate=est, method=Method.TRUNCATED,
                              work=boundary)
    raise ConvergenceError(
        f"truncated series: certified error {est:.3e} exceeds target "
        f"{config.target_tol:.3e} at max_terms={n_cap}"
    )


def accelerated_alternating(
    abs_term: Callable[[int], float],
    config: SeriesConfig,
) -> EvalResult:
    """sum_{n>=1} (-1)^(n-1) |t_n| for eventually-monotone magnitudes.

    abs_term(n) is the magnitude at 1-based index n.  Two acceleration depths
    certify the error; well under 1e-12 within a few dozen term evaluations.
    """
    if config.accel is AccelMode.NONE:
        raise ConvergenceError("alternating series requires an acceleration mode")
    needed = max(24.0, math.log(4.0 / config.target_tol) / math.log(3.0 + math.sqrt(8.0)) + 8)
    n = min(int(needed) + 1, 10_000)

    def a0(k: int) -> float:
        return abs_term(k + 1)

    coarse = alternating_sum(a0, n_terms=n - 6)
    value = alternating_sum(a0, n_terms=n)
    est = 2.0 * abs(value - coarse) + 256.0 * _FLOAT_EPS * abs(abs_term(1))
    if est > config.target_tol:
        raise ConvergenceError(
            f"alternating acceleration: certified error {est:.3e} exceeds "
            f"target {config.target_tol:.3e}"
        )
    return EvalResult(value=value, abs_error_estimate=est, method=Method.ACCELERATED, work=2 * n - 6)


def alternating_cross_check(abs_term: Callable[[int], float]) -> float:
    """Second, independent accelerator (averaged partial sums)."""
    return alternating_sum_by_averaging(lambda k: abs_term(k + 1), levels=56)


class Integrand(str, enum.Enum):
    LOG_POW_MOMENT = "log_pow_moment"          # x^(a-1) ln^m(1-x) on (0,1)
    POLYLOG_MOMENT = "polylog_moment"          # x^(a-1) Li_m(x) on (0,1)
    LOG_TIMES_LI2 = "log_times_li2"            # x^(a-1) ln(1-x) Li_2(x) on (0,1)
    LEMMA_MOMENT = "lemma_moment"              # H_m(t,a) t^(n+b-1) on (0,x)
    LEMMA_MOMENT_ZERO = "lemma_moment_zero"    # Li_m(t) t^(n+b-1) on (0,x)


def _polylog_at(m: int, x: float, omx: float) -> float:
    # near 1 the expansion needs u = -ln x computed from the exact 1-x
    if omx <= 0.0:
        return polylog(m, 1.0)
    if x > 0.75:
        from .specfun import _polylog_from_u

        return _polylog_from_u(m, -math.log1p(-omx))
    return polylog(m, x)


def _build_integrand(integrand_id: Integrand, params: Mapping[str, float]):
    from .specfun import h_func, param_polylog

    p = dict(params)
    if integrand_id is Integrand.LOG_POW_MOMENT:
        a, m = float(p["a"]), int(p["m"])
        if not a > 0:
            raise DomainError("log-power moment requires a > 0")
        if m > 6:
            raise DomainError("log-power moment supports m <= 6")
        return lambda x, omx: x ** (a - 1.0) * math.log(omx) ** m
    if integrand_id is Integrand.POLYLOG_MOMENT:
        a, m = float(p["a"]), int(p["m"])
        if not a > 0:
            raise DomainError("polylog moment requires a > 0")
        if m > 6:
            raise DomainError("polylog moment supports m <= 6")
        if m == 1:
            return lambda x, omx: -x ** (a - 1.0) * math.log(omx)
        return lambda x, omx: x ** (a - 1.0) * _polylog_at(m, x, omx)
    if integrand_id is Integrand.LOG_TIMES_LI2:
        a = float(p["a"])
        if not a > 0:
            raise DomainError("log*Li2 moment requires a > 0")
        return lambda x, omx: x ** (a - 1.0) * math.log(omx) * _polylog_at(2, x, omx)
    if integrand_id is Integrand.LEMMA_MOMENT:
        x0, a, b, n, m = (float(p["x"]), float(p["a"]), float(p["b"]),
                          int(p["n"]), int(p["m"]))
        if not 0.0 < x0 < 1.0:
            raise DomainError("lemma moment requires 0 < x < 1")

        def f(u, omu, x0=x0, a=a, b=b, n=n, m=m):
            t = x0 * u
            if t <= 0.0:
                return 0.0
            return h_func(m, a, t) * t ** (n + b - 1.0) * x0

        return f
    if integrand_id is Integrand.LEMMA_MOMENT_ZERO:
        x0, b, n, m = float(p["x"]), float(p["b"]), int(p["n"]), int(p["m"])
        if not 0.0 < x0 < 1.0:
            raise DomainError("lemma moment requires 0 < x < 1")

        def f(u, omu, x0=x0, b=b, n=n, m=m):
            t = x0 * u
            if t <= 0.0:
                return 0.0
            return polylog(m, t) * t ** (n + b - 1.0) * x0

        return f
    raise DomainError(f"unknown integrand id {integrand_id!r}")


def tanh_sinh(f: Callable[[float, float], float], tol: float,
              max_level: int = 12) -> tuple[float, float, int]:
    """Integrate f(x, 1-x) over (0, 1) with doubling tanh-sinh levels.

    Returns (value, abs_error_estimate, node_count); the integrand receives
    both x and 1-x so endpoint singularities see full precision.
    """
    prev = None
    value = None
    work = 0
    for level in range(3, max_level + 1):
        h = 2.0 ** (-level)
        total = 0.0
        j = 0
        while True:
            t = j * h
            pis = 0.5 * math.pi * math.sinh(t)
            if pis > 350.0:
                break
            ch = math.cosh(pis)
            w = 0.25 * math.pi * math.cosh(t) / (ch * ch)
            if w < 1e-320:
                break
            e2 = math.exp(-2.0 * pis)
            x = 1.0 / (1.0 + e2)       # (1 + tanh(pis)) / 2
            omx = e2 / (1.0 + e2)
            if j == 0:
                total += w * f(x, omx)
            elif omx > 0.0:
                total += w * (f(x, omx) + f(omx, x))  # node pair at +-t
            work += 1 if j == 0 else 2
            j += 1
        value = total * h
        if prev is not None and abs(value - prev) <= 0.25 * tol * max(1.0, abs(value)):
            est = 2.0 * abs(value - prev) + 16.0 * _FLOAT_EPS * max(1.0, abs(value))
            return value, est, work
        prev = value
    raise ConvergenceError(f"tanh-sinh did not reach tol={tol:.1e} by level {max_level}")


def quadrature(integrand_id: Integrand | str, params: Mapping[str, float],
               tol: float = 1e-11) -> EvalResult:
    """Tanh-sinh quadrature for the catalog integrands, singular endpoints included."""
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
    including when preconditions fail or the oracle cannot converge.
    """
    from . import catalog

    ident = catalog.get(case.identity_id)
    oracle_cfg = replace(config or SeriesConfig(), target_tol=case.tol / 10.0)
    try:
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
