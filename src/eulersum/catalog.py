"""Identity catalog: every verifiable identity, keyed by id, with its closed
form, an independent oracle, parameter validation, and a default grid.

Catalog oracles never call the closed forms they check.  Every series oracle,
alternating numerators included, goes through chunked truncated summation
with a log-power tail; no catalog oracle calls
``oracle.accelerated_alternating``.  Integral identities go through tanh-sinh
quadrature (``oracle.quadrature``: nested levels, each node evaluated once,
the integrand's own series summed over all nodes of a level in numpy);
generating-function series are summed directly with a geometric tail bound
(``linear_sums.gf_lhs``), while their closed sides (``linear_sums.gf_rhs``)
run neither that sum nor quadrature.
Difference numerators (the squared and cubic Stirling windows) are split into
separately-tailed pieces because a single log-power model cannot carry their
constant offsets.  Every validate, closed and oracle call turns a raw
overflow, division by zero or non-finite value into a DomainError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from . import alt_sums, linear_sums, wsums
from .errors import ConvergenceError, DomainError
from .harmonic import (
    alt_harmonic_num,
    harmonic_num,
    nested_harmonic_sum,
    param_harmonic,
    shifted_harmonic,
    y_moment,
)
from .oracle import (
    EvalResult,
    Integrand,
    Method,
    TailParams,
    Variant,
    quadrature,
    truncated_series,
)
from .specfun import LN2, alt_zeta, riemann_zeta

_LD = np.longdouble

PARAM_TYPES: Mapping[str, type] = {
    "a": float, "b": float, "c": float, "x": float, "y": float,
    "k": int, "m": int, "s": int, "p": int, "n": int, "r": int,
}


@dataclass(frozen=True)
class Identity:
    id: str
    params: tuple[str, ...]
    closed: Callable[..., float]          # (variant, **params) -> float
    oracle: Callable[..., EvalResult]     # (config, **params) -> EvalResult
    grid: tuple[dict, ...]
    tol: float = 1e-7
    has_printed_variant: bool = False
    description: str = ""
    validate: Callable[..., None] = lambda **p: None


CATALOG: dict[str, Identity] = {}


def get(identity_id: str) -> Identity:
    ident = CATALOG.get(str(identity_id))
    if ident is None:
        raise DomainError(f"unknown identity id {identity_id!r}")
    return ident


def ids() -> tuple[str, ...]:
    return tuple(CATALOG)


def _arithmetic_guard(ident_id: str, fn):
    # a raw overflow, a division by zero or a non-finite value means the
    # parameters lie outside what double precision can evaluate, which callers
    # handle as a DomainError (a nan closed value would otherwise read REFUTED)
    def guarded(*args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"{ident_id}: parameters outside double-precision range "
                              f"({type(exc).__name__}: {exc})") from exc
        value = out.value if isinstance(out, EvalResult) else out
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{ident_id}: parameters outside double-precision range "
                              f"(value {value})")
        return out

    return guarded


def _register(ident: Identity):
    CATALOG[ident.id] = replace(ident, validate=_arithmetic_guard(ident.id, ident.validate),
                                closed=_arithmetic_guard(ident.id, ident.closed),
                                oracle=_arithmetic_guard(ident.id, ident.oracle))


def _trunc(config, term, g, d) -> EvalResult:
    return truncated_series(term, config, TailParams(growth=g, denom_degree=d))


def _trunc_combo(config, parts) -> EvalResult:
    """Signed combination of separately-tailed truncated series."""
    weight = sum(abs(c) for c, _, _, _ in parts)
    cfg = replace(config, target_tol=config.target_tol / weight)
    value = 0.0
    est = 0.0
    work = 0
    for coef, term, g, d in parts:
        res = truncated_series(term, cfg, TailParams(growth=g, denom_degree=d))
        value += coef * res.value
        est += abs(coef) * res.abs_error_estimate
        work += res.work
    if est > config.target_tol:
        raise ConvergenceError(
            f"combined series: certified error {est:.3e} exceeds target {config.target_tol:.3e}"
        )
    return EvalResult(value=value, abs_error_estimate=est, method=Method.TRUNCATED, work=work)


def _rbinom(ns, k: int, b: float):
    # 1/binom(n+k+b, k) = k! / prod_{i=1..k} (n+b+i), stable for any n
    arr = np.full(ns.shape, _LD(float(math.factorial(k))))
    for i in range(1, k + 1):
        arr = arr / (ns + (b + i))
    return arr


def _env_h(env, m: int, alternating: bool = False):
    return env.harmonic(m, alternating)


def _need_pos(name: str, value, strict=True):
    v = float(value)
    if (strict and not v > 0.0) or (not strict and v < 0.0):
        cmp = ">" if strict else ">="
        raise DomainError(f"{name}={value} must be {cmp} 0")


def _need_int(name: str, value, minimum: int):
    v = float(value)
    if not v.is_integer() or v < minimum:
        raise DomainError(f"{name}={value} must be an integer >= {minimum}")


# --------------------------------------------------------------------------
# integer-shift displays that differ textually from their parent closed forms
# --------------------------------------------------------------------------

def _display_2_18(k: int, m: int) -> float:
    br = riemann_zeta(m + 1)
    br += sum((-1.0) ** (j - 1) * riemann_zeta(m + 1 - j) * harmonic_num(k - 1, j)
              for j in range(1, m))
    br += (-1.0) ** (m - 1) * nested_harmonic_sum(k, m)
    return br / k


def _display_2_19(r: int, k: int, m: int) -> float:
    br = sum(
        (-1.0) ** (j - 1) * riemann_zeta(m + 1 - j)
        * (harmonic_num(k - 1, j) - harmonic_num(r - 1, j))
        for j in range(1, m)
    )
    br += (-1.0) ** (m - 1) * (nested_harmonic_sum(k, m) - nested_harmonic_sum(r, m))
    return br / (k - r)


def _display_2_21(a: float, k: int) -> float:
    return (
        riemann_zeta(2) * param_harmonic(k, 1, a - 1.0)
        - shifted_harmonic(a) * param_harmonic(k, 2, a - 1.0)
        - nested_harmonic_sum(k, 2, a)
    ) / k


def _display_4_10(k: int, m: int) -> float:
    br = alt_zeta(m + 1)
    br += sum((-1.0) ** (j - 1) * alt_zeta(m + 1 - j) * harmonic_num(k - 1, j)
              for j in range(1, m))
    br += (-1.0) ** (m - 1) * LN2 * (harmonic_num(k - 1, m) + alt_harmonic_num(k - 1, m))
    br += (-1.0) ** m * nested_harmonic_sum(k, m, alternating=True)
    return br / k


def _display_4_11(r: int, k: int, m: int) -> float:
    br = sum(
        (-1.0) ** (j - 1) * alt_zeta(m + 1 - j)
        * (harmonic_num(k - 1, j) - harmonic_num(r - 1, j))
        for j in range(1, m)
    )
    br += (-1.0) ** (m - 1) * LN2 * (
        harmonic_num(k - 1, m) - harmonic_num(r - 1, m)
        + alt_harmonic_num(k - 1, m) - alt_harmonic_num(r - 1, m)
    )
    br += (-1.0) ** m * (nested_harmonic_sum(k, m, alternating=True)
                         - nested_harmonic_sum(r, m, alternating=True))
    return br / (k - r)


# --------------------------------------------------------------------------
# registrations
# --------------------------------------------------------------------------

_A3 = (0.5, 1.0, 2.5)
_A5 = (0.5, 1.0, 1.5, 2.5, 10.0 / 3.0)


def _grid(**axes) -> tuple[dict, ...]:
    out = [{}]
    for name, values in axes.items():
        out = [dict(d, **{name: v}) for d in out for v in values]
    return tuple(out)


def _corrected_only(fn):
    def closed(variant: Variant, **p):
        return fn(**p)

    return closed


_register(Identity(
    id="eq1.27",
    params=("a", "s"),
    description="sum H_n/(n+a)^s as zeta-shift products plus a reciprocal shift sum",
    closed=_corrected_only(lambda a, s: linear_sums.sum_H1_power(a, s)),
    oracle=lambda cfg, a, s: _trunc(cfg, lambda ns, e: e.h1 / (ns + a) ** s, g=1, d=int(s)),
    validate=lambda a, s: (_need_pos("a", a), _need_int("s", s, 2)),
    grid=_grid(a=_A5, s=(2, 3)),
))

_register(Identity(
    id="eq1.28",
    params=("a", "s"),
    description="partial-fraction value of sum 1/(n (n+a)^s)",
    closed=_corrected_only(lambda a, s: linear_sums.sum_recip_shift(a, s)),
    oracle=lambda cfg, a, s: _trunc(
        cfg, lambda ns, e: 1.0 / (ns * (ns + a) ** s), g=0, d=int(s) + 1),
    validate=lambda a, s: (_need_pos("a", a), _need_int("s", s, 1)),
    grid=_grid(a=_A5, s=(1, 2)),
))

_register(Identity(
    id="eq2.9",
    params=("a", "b"),
    description="bilinear sum H_n/((n+a)(n+b)); corrected middle-term sign",
    closed=lambda variant, a, b: linear_sums.sum_H1_bilinear(
        a, b, as_printed=variant is Variant.AS_PRINTED),
    oracle=lambda cfg, a, b: _trunc(
        cfg, lambda ns, e: e.h1 / ((ns + a) * (ns + b)), g=1, d=2),
    validate=lambda a, b: (_need_pos("a", a), _need_pos("b", b),
                           None if a != b else _raise("a and b must differ")),
    has_printed_variant=True,
    grid=({"a": 0.5, "b": 1.0}, {"a": 1.0, "b": 2.0}, {"a": 1.5, "b": 2.5},
          {"a": 2.5, "b": 10.0 / 3.0}, {"a": 0.5, "b": 2.5}),
))


def _raise(msg: str):
    raise DomainError(msg)


_register(Identity(
    id="eq2.13",
    params=("a", "k", "m"),
    description="window sum of H_n^(m) over (n+a)(n+a+k)",
    closed=_corrected_only(lambda a, k, m: linear_sums.sum_Hm_window(a, k, m)),
    oracle=lambda cfg, a, k, m: _trunc(
        cfg, lambda ns, e: _env_h(e, int(m)) / ((ns + a) * (ns + a + k)),
        g=1 if int(m) == 1 else 0, d=2),
    validate=lambda a, k, m: (_need_pos("a", a), _need_int("k", k, 1),
                              _need_int("m", m, 1)),
    grid=_grid(a=(0.5, 2.5), k=(1, 2), m=(1, 2, 3)),
))

_register(Identity(
    id="eq2.14",
    params=("a", "m"),
    description="moment of Li_m: sum 1/(n^m (n+a))",
    closed=_corrected_only(lambda a, m: linear_sums.polylog_moment(m, a)),
    oracle=lambda cfg, a, m: _trunc(
        cfg, lambda ns, e: 1.0 / (ns ** int(m) * (ns + a)), g=0, d=int(m) + 1),
    validate=lambda a, m: (_need_pos("a", a), _need_int("m", m, 1)),
    grid=_grid(a=_A5, m=(2, 3)),
))

_register(Identity(
    id="eq2.18",
    params=("k", "m"),
    description="integer window sum H_n^(m)/(n(n+k))",
    closed=_corrected_only(lambda k, m: _display_2_18(int(k), int(m))),
    oracle=lambda cfg, k, m: _trunc(
        cfg, lambda ns, e: _env_h(e, int(m)) / (ns * (ns + k)),
        g=1 if int(m) == 1 else 0, d=2),
    validate=lambda k, m: (_need_int("k", k, 1), _need_int("m", m, 1)),
    grid=_grid(k=(2, 5), m=(1, 2, 3)),
))

_register(Identity(
    id="eq2.19",
    params=("r", "k", "m"),
    description="integer window sum H_n^(m)/((n+r)(n+k))",
    closed=_corrected_only(lambda r, k, m: _display_2_19(int(r), int(k), int(m))),
    oracle=lambda cfg, r, k, m: _trunc(
        cfg, lambda ns, e: _env_h(e, int(m)) / ((ns + r) * (ns + k)),
        g=1 if int(m) == 1 else 0, d=2),
    validate=lambda r, k, m: (_need_int("r", r, 1), _need_int("k", k, int(r) + 1),
                              _need_int("m", m, 1)),
    grid=({"r": 1, "k": 2, "m": 1}, {"r": 1, "k": 2, "m": 2}, {"r": 1, "k": 3, "m": 3},
          {"r": 2, "k": 5, "m": 1}, {"r": 2, "k": 5, "m": 2}, {"r": 2, "k": 5, "m": 3}),
))

_register(Identity(
    id="eq2.20",
    params=("a", "k"),
    description="m=1 window sum, evaluated from the general window form "
                "(printed display has an unbound order superscript)",
    closed=_corrected_only(lambda a, k: linear_sums.sum_Hm_window(a, k, 1)),
    oracle=lambda cfg, a, k: _trunc(
        cfg, lambda ns, e: e.h1 / ((ns + a) * (ns + a + k)), g=1, d=2),
    validate=lambda a, k: (_need_pos("a", a), _need_int("k", k, 1)),
    grid=_grid(a=(0.5, 2.5), k=(1, 2, 3)),
))

_register(Identity(
    id="eq2.21",
    params=("a", "k"),
    description="window sum of H_n^(2) in shifted-harmonic form",
    closed=_corrected_only(lambda a, k: _display_2_21(float(a), int(k))),
    oracle=lambda cfg, a, k: _trunc(
        cfg, lambda ns, e: e.h2 / ((ns + a) * (ns + a + k)), g=0, d=2),
    validate=lambda a, k: (_need_pos("a", a), _need_int("k", k, 1)),
    grid=_grid(a=(0.5, 2.5), k=(1, 2, 3)),
))

_register(Identity(
    id="eq2.22",
    params=("a", "k"),
    description="window sum of H_n^2",
    closed=_corrected_only(lambda a, k: linear_sums.sum_H1sq_window(a, k)),
    oracle=lambda cfg, a, k: _trunc(
        cfg, lambda ns, e: e.h1 ** 2 / ((ns + a) * (ns + a + k)), g=2, d=2),
    validate=lambda a, k: (_need_pos("a", a), _need_int("k", k, 1)),
    grid=_grid(a=_A3, k=(1, 2)),
))

_register(Identity(
    id="eq2.27",
    params=("a", "k"),
    description="window sum of H_n^2 - H_n^(2) equals the Y_2 window",
    closed=_corrected_only(lambda a, k: linear_sums.sum_sq_diff_window(a, k)),
    oracle=lambda cfg, a, k: _trunc_combo(cfg, [
        (1.0, lambda ns, e: e.h1 ** 2 / ((ns + a) * (ns + a + k)), 2, 2),
        (-1.0, lambda ns, e: e.h2 / ((ns + a) * (ns + a + k)), 0, 2),
    ]),
    validate=lambda a, k: (_need_pos("a", a), _need_int("k", k, 1)),
    grid=_grid(a=_A3, k=(1, 2)),
))

_register(Identity(
    id="eq2.28",
    params=("a", "k"),
    description="window sum of H_n H_n^(2)",
    closed=_corrected_only(lambda a, k: linear_sums.sum_H1H2_window(a, k)),
    oracle=lambda cfg, a, k: _trunc(
        cfg, lambda ns, e: e.h1 * e.h2 / ((ns + a) * (ns + a + k)), g=1, d=2),
    validate=lambda a, k: (_need_pos("a", a), _need_int("k", k, 1)),
    grid=_grid(a=_A3, k=(1, 2)),
))

_register(Identity(
    id="eq2.29",
    params=("a", "k"),
    description="window sum of H_n^3",
    closed=_corrected_only(lambda a, k: linear_sums.sum_H1cubed_window(a, k)),
    oracle=lambda cfg, a, k: _trunc(
        cfg, lambda ns, e: e.h1 ** 3 / ((ns + a) * (ns + a + k)), g=3, d=2),
    validate=lambda a, k: (_need_pos("a", a), _need_int("k", k, 1)),
    tol=1e-6,
    grid=_grid(a=_A3, k=(1, 2)),
))

_register(Identity(
    id="eq2.36",
    params=("a", "k"),
    description="cubic Stirling window: H_n^3 - 3 H_n H_n^(2) + 2 H_n^(3)",
    closed=_corrected_only(lambda a, k: linear_sums.cubic_stirling_window(a, k)),
    oracle=lambda cfg, a, k: _trunc_combo(cfg, [
        (1.0, lambda ns, e: e.h1 ** 3 / ((ns + a) * (ns + a + k)), 3, 2),
        (-3.0, lambda ns, e: e.h1 * e.h2 / ((ns + a) * (ns + a + k)), 1, 2),
        (2.0, lambda ns, e: e.h3 / ((ns + a) * (ns + a + k)), 0, 2),
    ]),
    validate=lambda a, k: (_need_pos("a", a), _need_int("k", k, 1)),
    tol=1e-6,
    grid=_grid(a=_A3, k=(1, 2)),
))

_register(Identity(
    id="eq2.37",
    params=("a", "k"),
    description="window sum of H_n^(3)",
    closed=_corrected_only(lambda a, k: linear_sums.sum_Hm_window(a, k, 3)),
    oracle=lambda cfg, a, k: _trunc(
        cfg, lambda ns, e: e.h3 / ((ns + a) * (ns + a + k)), g=0, d=2),
    validate=lambda a, k: (_need_pos("a", a), _need_int("k", k, 1)),
    grid=_grid(a=(0.5, 2.5), k=(1, 2, 3)),
))

_register(Identity(
    id="eq3.9",
    params=("a", "b", "k", "p"),
    description="reciprocal-binomial sum of H_n with power factor",
    closed=_corrected_only(lambda a, b, k, p: wsums.w_1_p(a, b, k, p)),
    oracle=lambda cfg, a, b, k, p: _trunc(
        cfg, lambda ns, e: e.h1 * _rbinom(ns, int(k), float(b)) / (ns + a) ** int(p),
        g=1, d=int(k) + int(p)),
    validate=lambda a, b, k, p: (_need_pos("a", a), _need_pos("b", b),
                                 _need_int("k", k, 1), _need_int("p", p, 1),
                                 wsums._check_resonance(float(a), float(b), int(k))),
    grid=tuple(dict(base, **kp) for base in ({"a": 1.0, "b": 0.5}, {"a": 0.5, "b": 1.0},
                                             {"a": 2.0, "b": 0.25})
               for kp in ({"k": 2, "p": 1}, {"k": 2, "p": 2}, {"k": 3, "p": 1})),
))

_register(Identity(
    id="eq3.11",
    params=("b", "k", "m"),
    description="reciprocal-binomial sum of H_n^(m), no power factor",
    closed=_corrected_only(lambda b, k, m: wsums.w_m_0(b, k, m)),
    oracle=lambda cfg, b, k, m: _trunc(
        cfg, lambda ns, e: _env_h(e, int(m)) * _rbinom(ns, int(k), float(b)),
        g=1 if int(m) == 1 else 0, d=int(k)),
    validate=lambda b, k, m: (_need_pos("b", b, strict=False), _need_int("k", k, 2),
                              _need_int("m", m, 1)),
    grid=_grid(b=(0.0, 0.5), k=(2, 3), m=(1, 2, 3)),
))

_register(Identity(
    id="eq3.13",
    params=("a", "k", "m"),
    description="reciprocal-binomial sum of H_n^(m) with one power of (n+a)",
    closed=_corrected_only(lambda a, k, m: wsums.w_m_1(a, k, m)),
    oracle=lambda cfg, a, k, m: _trunc(
        cfg, lambda ns, e: _env_h(e, int(m)) * _rbinom(ns, int(k), float(a)) / (ns + a),
        g=1 if int(m) == 1 else 0, d=int(k) + 1),
    validate=lambda a, k, m: (_need_pos("a", a), _need_int("k", k, 1),
                              _need_int("m", m, 1)),
    grid=_grid(a=(0.5, 1.0), k=(1, 2), m=(1, 2, 3)),
))

_register(Identity(
    id="eq3.15",
    params=("b", "k"),
    description="reciprocal-binomial sum of H_n^2; corrected H_(b+1) factor",
    closed=lambda variant, b, k: wsums.w_11_0(b, k, as_printed=variant is Variant.AS_PRINTED),
    oracle=lambda cfg, b, k: _trunc(
        cfg, lambda ns, e: e.h1 ** 2 * _rbinom(ns, int(k), float(b)), g=2, d=int(k)),
    validate=lambda b, k: (_need_pos("b", b, strict=False), _need_int("k", k, 2)),
    has_printed_variant=True,
    grid=_grid(b=(0.0, 0.5, 1.0), k=(2, 3)),
))

_register(Identity(
    id="eq3.16",
    params=("a", "k"),
    description="reciprocal-binomial sum of H_n^2 with one power of (n+a)",
    closed=_corrected_only(lambda a, k: wsums.w_111(a, k)),
    oracle=lambda cfg, a, k: _trunc(
        cfg, lambda ns, e: e.h1 ** 2 * _rbinom(ns, int(k), float(a)) / (ns + a),
        g=2, d=int(k) + 1),
    validate=lambda a, k: (_need_pos("a", a), _need_int("k", k, 1)),
    grid=_grid(a=_A3, k=(1, 2)),
))

_register(Identity(
    id="w110",
    params=("k",),
    description="classical H_n^2/binom(n+k,k) value",
    closed=_corrected_only(lambda k: wsums.classical_w110(k)),
    oracle=lambda cfg, k: _trunc(
        cfg, lambda ns, e: e.h1 ** 2 * _rbinom(ns, int(k), 0.0), g=2, d=int(k)),
    validate=lambda k: _need_int("k", k, 2),
    grid=_grid(k=(2, 3, 4, 5, 6)),
))

_register(Identity(
    id="w111",
    params=("k",),
    description="classical H_n^2/(n binom(n+k,k)) value",
    closed=_corrected_only(lambda k: wsums.classical_w111(k)),
    oracle=lambda cfg, k: _trunc(
        cfg, lambda ns, e: e.h1 ** 2 * _rbinom(ns, int(k), 0.0) / ns, g=2, d=int(k) + 1),
    validate=lambda k: _need_int("k", k, 1),
    grid=_grid(k=(1, 2, 3)),
))

_register(Identity(
    id="eq4.2",
    params=("a", "b"),
    description="alternating-numerator bilinear sum; symmetric half factors",
    closed=lambda variant, a, b: alt_sums.alt_sum_H1_bilinear(
        a, b, as_printed=variant is Variant.AS_PRINTED),
    oracle=lambda cfg, a, b: _trunc(
        cfg, lambda ns, e: e.hb1 / ((ns + a) * (ns + b)), g=0, d=2),
    validate=lambda a, b: (_need_pos("a", a), _need_pos("b", b),
                           None if a != b else _raise("a and b must differ")),
    has_printed_variant=True,
    tol=1e-7,
    grid=({"a": 0.5, "b": 1.0}, {"a": 1.0, "b": 2.0}, {"a": 0.5, "b": 2.5}),
))

_register(Identity(
    id="eq4.3",
    params=("a", "s"),
    description="alternating-numerator power sum over (n+a)^s",
    closed=_corrected_only(lambda a, s: alt_sums.alt_sum_H1_power(a, s)),
    oracle=lambda cfg, a, s: _trunc(
        cfg, lambda ns, e: e.hb1 / (ns + a) ** int(s), g=0, d=int(s)),
    validate=lambda a, s: (_need_pos("a", a, strict=False), _need_int("s", s, 2)),
    grid=_grid(a=(0.0, 1.0, 2.0), s=(2, 3)),
))

_register(Identity(
    id="eq4.5",
    params=("a", "b", "k", "p"),
    description="alternating-numerator reciprocal-binomial sum with power factor",
    closed=_corrected_only(lambda a, b, k, p: wsums.w_alt_1_p(a, b, k, p)),
    oracle=lambda cfg, a, b, k, p: _trunc(
        cfg, lambda ns, e: e.hb1 * _rbinom(ns, int(k), float(b)) / (ns + a) ** int(p),
        g=0, d=int(k) + int(p)),
    validate=lambda a, b, k, p: (_need_pos("a", a), _need_pos("b", b),
                                 _need_int("k", k, 1), _need_int("p", p, 1),
                                 wsums._check_resonance(float(a), float(b), int(k))),
    grid=tuple(dict(base, k=2, p=p) for base in ({"a": 1.0, "b": 0.5}, {"a": 0.5, "b": 1.0})
               for p in (1, 2)),
))

_register(Identity(
    id="eq4.7",
    params=("a", "k", "m"),
    description="alternating-numerator window sum; integer shifts only",
    closed=_corrected_only(lambda a, k, m: alt_sums.alt_sum_Hm_window(a, k, m)),
    oracle=lambda cfg, a, k, m: _trunc(
        cfg, lambda ns, e: _env_h(e, int(m), alternating=True) / ((ns + a) * (ns + a + k)),
        g=0, d=2),
    validate=lambda a, k, m: (_need_int("a", a, 0), _need_int("k", k, 1),
                              _need_int("m", m, 1)),
    grid=_grid(a=(0, 1, 2), k=(1, 2), m=(1, 2)),
))

_register(Identity(
    id="eq4.10",
    params=("k", "m"),
    description="alternating window display specialized to zero shift",
    closed=_corrected_only(lambda k, m: _display_4_10(int(k), int(m))),
    oracle=lambda cfg, k, m: _trunc(
        cfg, lambda ns, e: _env_h(e, int(m), alternating=True) / (ns * (ns + k)), g=0, d=2),
    validate=lambda k, m: (_need_int("k", k, 1), _need_int("m", m, 1)),
    grid=_grid(k=(2, 5), m=(1, 2, 3)),
))

_register(Identity(
    id="eq4.11",
    params=("r", "k", "m"),
    description="alternating window display specialized to integer shift r",
    closed=_corrected_only(lambda r, k, m: _display_4_11(int(r), int(k), int(m))),
    oracle=lambda cfg, r, k, m: _trunc(
        cfg, lambda ns, e: _env_h(e, int(m), alternating=True) / ((ns + r) * (ns + k)),
        g=0, d=2),
    validate=lambda r, k, m: (_need_int("r", r, 1), _need_int("k", k, int(r) + 1),
                              _need_int("m", m, 1)),
    grid=({"r": 1, "k": 2, "m": 1}, {"r": 1, "k": 2, "m": 2}, {"r": 1, "k": 3, "m": 1},
          {"r": 1, "k": 3, "m": 2}, {"r": 2, "k": 3, "m": 1}, {"r": 2, "k": 3, "m": 2}),
))

_register(Identity(
    id="eq4.12",
    params=("a", "k", "m"),
    description="alternating-numerator reciprocal-binomial sum, no power factor",
    closed=_corrected_only(lambda a, k, m: wsums.w_alt_m_0(a, k, m)),
    oracle=lambda cfg, a, k, m: _trunc(
        cfg, lambda ns, e: _env_h(e, int(m), alternating=True) * _rbinom(ns, int(k), float(a)),
        g=0, d=int(k)),
    validate=lambda a, k, m: (_need_int("a", a, 0), _need_int("k", k, 2),
                              _need_int("m", m, 1)),
    grid=_grid(a=(0, 1), k=(2, 3), m=(1, 2)),
))

_register(Identity(
    id="eq4.13",
    params=("a", "k", "m"),
    description="alternating-numerator reciprocal-binomial sum with (n+a) factor",
    closed=_corrected_only(lambda a, k, m: wsums.w_alt_m_1(a, k, m)),
    oracle=lambda cfg, a, k, m: _trunc(
        cfg, lambda ns, e: _env_h(e, int(m), alternating=True)
        * _rbinom(ns, int(k), float(a)) / (ns + a),
        g=0, d=int(k) + 1),
    validate=lambda a, k, m: (_need_int("a", a, 1), _need_int("k", k, 1),
                              _need_int("m", m, 1)),
    grid=_grid(a=(1, 2), k=(1, 2), m=(1, 2)),
))

_register(Identity(
    id="eq2.2",
    params=("m", "a"),
    description="log-power moment recurrence vs tanh-sinh quadrature",
    closed=_corrected_only(lambda m, a: y_moment(int(m), float(a))),
    oracle=lambda cfg, m, a: _ymoment_oracle(cfg, int(m), float(a)),
    validate=lambda m, a: (_need_int("m", m, 0), _need_pos("a", a)),
    tol=1e-10,
    grid=_grid(m=(1, 2, 3, 4), a=(0.5, 1.0, 2.5, math.pi)),
))


def _ymoment_oracle(cfg, m: int, a: float) -> EvalResult:
    res = quadrature(Integrand.LOG_POW_MOMENT, {"a": a, "m": m},
                     tol=max(1e-13, cfg.target_tol / 10.0))
    return EvalResult(
        value=(-1.0) ** m * a * res.value,
        abs_error_estimate=res.abs_error_estimate * abs(a),
        method=res.method, work=res.work,
    )


# generating-function / lemma identities: closed = displayed right side,
# oracle = direct summation of the left side (quadrature for eq1.19, eq1.23)
def _gf_closed(kind: linear_sums.GfKind):
    def closed(variant: Variant, **p):
        return linear_sums.gf_rhs(kind, **p)

    return closed


def _gf_oracle(kind: linear_sums.GfKind):
    def oracle(cfg, **p):
        res = linear_sums.gf_lhs(kind, **p)
        return EvalResult(value=res.value, abs_error_estimate=res.bound,
                          method=Method.TRUNCATED, work=res.work)

    return oracle


_GF_RNG_SEED = 20240813


def _gf_draws(n: int, names: tuple[str, ...], s_range=(1, 3), with_y=False) -> tuple[dict, ...]:
    rng = np.random.default_rng(_GF_RNG_SEED + len(names) * 7 + n)
    out = []
    for _ in range(n):
        d = {}
        for name in names:
            if name in ("x", "y"):
                d[name] = round(float(rng.uniform(-0.88, 0.88)), 6)
            elif name == "a":
                d[name] = round(float(rng.uniform(0.05, 3.0)), 6)
            elif name in ("s", "m", "p"):
                d[name] = int(rng.integers(s_range[0], s_range[1] + 1))
        out.append(d)
    return tuple(out)


_register(Identity(
    id="eq1.24",
    params=("x", "y", "a", "s"),
    description="two-variable parametric product series identity",
    closed=_gf_closed(linear_sums.GfKind.LEMMA13_TWO_VAR),
    oracle=_gf_oracle(linear_sums.GfKind.LEMMA13_TWO_VAR),
    validate=lambda x, y, a, s: (_need_open("x", x), _need_open("y", y),
                                 _need_int("s", s, 1)),
    tol=1e-9,
    grid=_gf_draws(9, ("x", "y", "a", "s")),
))

_register(Identity(
    id="eq1.25",
    params=("x", "a", "s"),
    description="one-variable parametric product series identity",
    closed=_gf_closed(linear_sums.GfKind.LEMMA13),
    oracle=_gf_oracle(linear_sums.GfKind.LEMMA13),
    validate=lambda x, a, s: (_need_open("x", x), _need_int("s", s, 2)),
    tol=1e-9,
    grid=_gf_draws(9, ("x", "a", "s"), s_range=(2, 4)),
))

_register(Identity(
    id="eq1.29",
    params=("x",),
    description="generating function of H_n H_n^(2)",
    closed=_gf_closed(linear_sums.GfKind.HN_H2),
    oracle=_gf_oracle(linear_sums.GfKind.HN_H2),
    validate=lambda x: _need_open("x", x),
    tol=1e-9,
    grid=tuple({"x": v} for v in (-0.8, -0.3, 0.25, 0.5, 0.8)),
))

_register(Identity(
    id="eq1.30",
    params=("x", "m"),
    description="generating function of H_n H_n^(m)",
    closed=_gf_closed(linear_sums.GfKind.HN_HM),
    oracle=_gf_oracle(linear_sums.GfKind.HN_HM),
    validate=lambda x, m: (_need_open("x", x), _need_int("m", m, 2)),
    tol=1e-9,
    grid=_grid(x=(-0.8, 0.3, 0.7), m=(2, 3)),
))

_register(Identity(
    id="eq1.31",
    params=("x", "y", "p", "m"),
    description="reflection of nested double sums",
    closed=_gf_closed(linear_sums.GfKind.NESTED_REFLECT),
    oracle=_gf_oracle(linear_sums.GfKind.NESTED_REFLECT),
    validate=lambda x, y, p, m: (_need_open("x", x), _need_open("y", y),
                                 _need_int("p", p, 1), _need_int("m", m, 1)),
    tol=1e-9,
    grid=_gf_draws(8, ("x", "y", "p", "m"), s_range=(1, 2)),
))

_register(Identity(
    id="eq2.25",
    params=("x",),
    description="generating function of H_n^2 - H_n^(2)",
    closed=_gf_closed(linear_sums.GfKind.SQ_DIFF),
    oracle=_gf_oracle(linear_sums.GfKind.SQ_DIFF),
    validate=lambda x: _need_open("x", x),
    tol=1e-9,
    grid=tuple({"x": v} for v in (-0.5, 0.25, 0.6, 0.85)),
))

_register(Identity(
    id="eq1.19",
    params=("x", "a", "b", "n", "m"),
    description="moment integral of the shifted power series H_m(t,a)",
    closed=_gf_closed(linear_sums.GfKind.MOMENT_IDENT),
    oracle=lambda cfg, x, a, b, n, m: quadrature(
        Integrand.LEMMA_MOMENT, {"x": x, "a": a, "b": b, "n": n, "m": m},
        tol=max(1e-13, cfg.target_tol / 10.0)),
    validate=lambda x, a, b, n, m: (_need_open("x", x), _need_pos("a", a),
                                    _need_pos("b", b), _need_int("n", n, 1),
                                    _need_int("m", m, 1)),
    tol=1e-9,
    grid=_grid(x=(0.3, 0.8), n=(1, 4), a=(0.5, 2.0), b=(0.5, 2.0), m=(2, 3)),
))

_register(Identity(
    id="eq1.23",
    params=("x", "b", "n", "m"),
    description="moment integral of Li_m over (0, x)",
    closed=_gf_closed(linear_sums.GfKind.MOMENT_IDENT_ZERO),
    oracle=lambda cfg, x, b, n, m: quadrature(
        Integrand.LEMMA_MOMENT_ZERO, {"x": x, "b": b, "n": n, "m": m},
        tol=max(1e-13, cfg.target_tol / 10.0)),
    validate=lambda x, b, n, m: (_need_open("x", x), _need_pos("b", b),
                                 _need_int("n", n, 1), _need_int("m", m, 1)),
    tol=1e-9,
    grid=_grid(x=(0.3, 0.8), n=(1, 4), b=(0.5, 2.0), m=(2, 3)),
))


def _need_open(name: str, value):
    v = float(value)
    if not -1.0 < v < 1.0:
        raise DomainError(f"{name}={value} must lie strictly inside (-1, 1)")


# --------------------------------------------------------------------------
# default suite and errata
# --------------------------------------------------------------------------

_DEFAULT_SUITE_IDS = (
    "eq1.27", "eq1.28", "eq2.9", "eq2.13", "eq2.14", "eq2.18", "eq2.19",
    "eq2.20", "eq2.21", "eq2.22", "eq2.27", "eq2.28", "eq2.29", "eq2.36",
    "eq2.37", "eq3.9", "eq3.11", "eq3.13", "eq3.15", "eq3.16", "w110", "w111",
    "eq4.2", "eq4.3", "eq4.5", "eq4.7", "eq4.10", "eq4.11", "eq4.12", "eq4.13",
)

# the three families whose printed variants the oracle refutes
REFUTATION_WITNESSES = (
    ("eq2.9", {"a": 1.0, "b": 2.0}),
    ("eq3.15", {"b": 0.0, "k": 2}),
    ("eq4.2", {"a": 1.0, "b": 2.0}),
)


def default_cases(variant: str = "corrected", tol: float | None = None,
                  identity: str = "all"):
    """The built-in verification suite as a list of IdentityCase.

    'corrected' runs corrected rows only; 'as-printed' runs as-printed rows
    for identities that have a printed variant (the refutation witnesses when
    identity='all'); 'both' appends the witnesses after the corrected rows.
    """
    from .oracle import IdentityCase

    want = tuple(_DEFAULT_SUITE_IDS) if identity == "all" else (identity,)
    for ident_id in want:
        get(ident_id)  # raises for unknown ids
    cases = []
    if variant in ("corrected", "both"):
        for ident_id in want:
            ident = CATALOG[ident_id]
            for params in ident.grid:
                cases.append(IdentityCase(
                    identity_id=ident_id, params=dict(params),
                    tol=tol if tol is not None else ident.tol,
                    variant=Variant.CORRECTED,
                ))
    if variant in ("as-printed", "both"):
        witnesses = (
            REFUTATION_WITNESSES if identity == "all"
            else tuple((i, p) for i, p in REFUTATION_WITNESSES if i == identity)
        )
        for ident_id, params in witnesses:
            ident = CATALOG[ident_id]
            cases.append(IdentityCase(
                identity_id=ident_id, params=dict(params),
                tol=tol if tol is not None else ident.tol,
                variant=Variant.AS_PRINTED,
            ))
    return cases


@dataclass(frozen=True)
class ErrataEntry:
    identity: str
    issue: str
    witness: dict | None
    expected_residual: float | None
    kind: str  # "refuted" or "documentation"


ERRATA: tuple[ErrataEntry, ...] = (
    ErrataEntry(
        identity="eq2.9",
        issue="middle squared-harmonic term carries the wrong sign as printed; "
              "corrected form uses (H_b^2 - H_a^2)/(2(b-a))",
        witness={"a": 1.0, "b": 2.0},
        expected_residual=1.25,
        kind="refuted",
    ),
    ErrataEntry(
        identity="eq4.2",
        issue="as printed, one squared alternating-zeta term carries a nested "
              "1/2 factor; the limit derivation forces symmetric halves",
        witness={"a": 1.0, "b": 2.0},
        expected_residual=0.0235,
        kind="refuted",
    ),
    ErrataEntry(
        identity="eq3.15",
        issue="the factor multiplying the order-2 window term is H_(b+1), "
              "not the printed H_b",
        witness={"b": 0.0, "k": 2},
        expected_residual=2.0,
        kind="refuted",
    ),
    ErrataEntry(
        identity="eq2.20",
        issue="printed m=1 display contains an unbound order superscript; "
              "the artifact evaluates the m=1 case of the general window form",
        witness=None,
        expected_residual=None,
        kind="documentation",
    ),
    ErrataEntry(
        identity="zeta_k2",
        issue="an unnumbered m=1 companion display of the integer-shift family "
              "uses an undefined symbol zeta_k(2); not implemented",
        witness=None,
        expected_residual=None,
        kind="documentation",
    ),
)
