"""Identity catalog: every verifiable identity, keyed by id, with its closed
form, an independent oracle, a parameter schema, and a default grid.

Each identity declares its parameters once, as an ordered mapping from name
to kind (``positive``, ``nonnegative``, ``inside_unit``,
``positive_below_one``, ``unconstrained`` or ``Integer(minimum)``), plus at
most one cross-parameter ``check``.  Its ``validate`` is derived from that
declaration after ``check_params`` (the declared names, each a real number
but not a bool, as grid files are also checked), and the CLI reads the kinds
to decide which flags are integers.

Each of the 30 series identities declares its summand once, as an
``oracle.Summand``: the numerator, a polynomial in harmonic numbers
(alternating or not) given as (coefficient, orders) monomials or, for one
monomial, by its orders alone; the (shift, power) factors of the
denominator; and an optional reciprocal binomial 1/C(n+k+b, k).  The
catalog only declares summands; ``oracle.truncated_series`` sums them and
derives each tail from the declaration: the expansions of H_x^(m) (or
H-bar_x^(m)) and of the denominator in 1/x, ln x and (-1)^x, summed past N
in closed form.  The degree d = the sum of the powers plus k must be at
least 2 for the series to converge, and below 86 (larger degrees raise
OverflowError, a DomainError here).  The difference numerators of the
squared and cubic Stirling windows, H_n^2 - H_n^(2) (eq2.27) and
H_n^3 - 3 H_n H_n^(2) + 2 H_n^(3) (eq2.36), are such polynomials: one
series each, with one tail.

Catalog oracles never call the closed forms they check.  Every series oracle,
alternating numerators included, goes through ``oracle.truncated_series``.
The log-power moment eq2.2 is the one integral left to tanh-sinh quadrature
(``oracle.quadrature``: nested levels, each node evaluated once).  The left
sides of the eight generating-function and moment identities are summed
directly to the config's target (``linear_sums.gf_lhs``: the term count is
fixed from an a-priori tail bound before summing; the moment integrals
eq1.19 and eq1.23 are integrated term by term into one positive series), and
a bound that misses the target raises ConvergenceError, as a series
oracle's does.  The closed sides of all of these (``linear_sums.gf_rhs``)
run none of those sums nor quadrature.  Every validate, closed and oracle
call turns a raw overflow or division by zero into a DomainError, as it does
a closed or oracle value that is not a finite real float.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Mapping

from . import linear_sums, wsums
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
    Summand,
    Variant,
    quadrature,
    truncated_series,
)
from .specfun import LN2, alt_zeta, riemann_zeta

# --------------------------------------------------------------------------
# parameter kinds: each checks one value and raises DomainError
# --------------------------------------------------------------------------

def positive(name: str, value) -> None:
    if not float(value) > 0.0:
        raise DomainError(f"{name}={value} must be > 0")


def nonnegative(name: str, value) -> None:
    if float(value) < 0.0:
        raise DomainError(f"{name}={value} must be >= 0")


def inside_unit(name: str, value) -> None:
    if not -1.0 < float(value) < 1.0:
        raise DomainError(f"{name}={value} must lie strictly inside (-1, 1)")


def positive_below_one(name: str, value) -> None:
    if not 0.0 < float(value) < 1.0:
        raise DomainError(f"{name}={value} must satisfy 0 < {name} < 1")


def unconstrained(name: str, value) -> None:
    """A real parameter the identity accepts at any value."""


@dataclass(frozen=True)
class Integer:
    """An integer parameter >= minimum; the CLI passes it as an int."""

    minimum: int

    def __call__(self, name: str, value) -> None:
        v = float(value)
        if not v.is_integer() or v < self.minimum:
            raise DomainError(f"{name}={value} must be an integer >= {self.minimum}")


@dataclass(frozen=True)
class Identity:
    id: str
    params: Mapping[str, Callable[[str, object], None]]  # name -> kind, in call order
    closed: Callable[..., float]          # (variant, **params) -> float
    oracle: Callable[..., EvalResult]     # (config, **params) -> EvalResult
    grid: tuple[dict, ...]
    tol: float = 1e-7
    has_printed_variant: bool = False
    description: str = ""
    check: Callable[..., None] | None = None     # cross-parameter rule, run after the kinds
    validate: Callable[..., None] | None = None  # derived from params and check


CATALOG: dict[str, Identity] = {}


def get(identity_id: str) -> Identity:
    ident = CATALOG.get(str(identity_id))
    if ident is None:
        raise DomainError(f"unknown identity id {identity_id!r}")
    return ident


def ids() -> tuple[str, ...]:
    return tuple(CATALOG)


def _arithmetic_guard(ident_id: str, fn, returns_value: bool = True):
    # a raw overflow, a division by zero or a value that is not a finite real
    # float means the parameters lie outside what double precision can
    # evaluate, which callers handle as a DomainError (a nan closed value
    # would otherwise read REFUTED, and a complex one break the report)
    def guarded(*args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"{ident_id}: parameters outside double-precision range "
                              f"({type(exc).__name__}: {exc})") from exc
        if returns_value:
            value = out.value if isinstance(out, EvalResult) else out
            if not isinstance(value, float):
                raise DomainError(f"{ident_id}: value {value!r} is not a real float")
            if not math.isfinite(value):
                raise DomainError(f"{ident_id}: parameters outside double-precision range "
                                  f"(value {value})")
        return out

    return guarded


def is_number(value) -> bool:
    """A real number (an int, a float or a numpy scalar), but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


_PLAIN_NUMBERS = frozenset((int, float))


def check_params(ident: Identity, params) -> None:
    """Raise DomainError unless params maps exactly the declared names to numbers."""
    # a dict of exact ints and floats under the declared names passes at
    # once; the generic checks decide every other input (a bool is rejected)
    if (type(params) is dict and params.keys() == ident.params.keys()
            and _PLAIN_NUMBERS.issuperset(map(type, params.values()))):
        return
    if not (isinstance(params, Mapping) and params.keys() == ident.params.keys()
            and all(map(is_number, params.values()))):
        try:
            shown = json.dumps(params, default=repr)
        except TypeError:  # a key json cannot write, such as a tuple
            shown = repr(params)
        raise DomainError(f"{ident.id} takes numeric parameters {', '.join(ident.params)}; "
                          f"got {shown}")


def _validator(ident: Identity):
    kinds = tuple(ident.params.items())
    names, plain, check = ident.params.keys(), _PLAIN_NUMBERS, ident.check

    def validate(**p):
        # exact ints and floats skip check_params, which costs about as much
        # as the kinds; it decides every other value (a bool is rejected)
        if p.keys() != names or not plain.issuperset(map(type, p.values())):
            check_params(ident, p)
        for name, kind in kinds:
            kind(name, p[name])
        if check is not None:
            check(**p)

    return validate


def _register(ident: Identity):
    CATALOG[ident.id] = replace(
        ident,
        validate=_arithmetic_guard(ident.id, _validator(ident), returns_value=False),
        closed=_arithmetic_guard(ident.id, ident.closed),
        oracle=_arithmetic_guard(ident.id, ident.oracle),
    )


def _distinct(a, b):
    if a == b:
        raise DomainError("a and b must differ")


def _k_above_r(r, k, **_):
    if float(k) < int(r) + 1:
        raise DomainError(f"k={k} must be an integer >= {int(r) + 1}")


def _no_resonance(a, b, k, **_):
    wsums._check_resonance(float(a), float(b), int(k))


# --------------------------------------------------------------------------
# summands of the series identities
# --------------------------------------------------------------------------

def _window(a, k) -> tuple:
    """The factors of (n + a)(n + a + k)."""
    return ((a, 1), ((a, k), 1))


def _series(summand: Callable[..., Summand]) -> Callable[..., EvalResult]:
    """The oracle that sums summand(**params)."""
    def oracle(config, **params):
        # called through this module's global with config second: the
        # benchmark's tracer (perfbench/tracing.py) patches it there
        return truncated_series(summand(**params), config)

    return oracle


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
    params={"a": positive, "s": Integer(2)},
    description="sum H_n/(n+a)^s as zeta-shift products plus a reciprocal shift sum",
    closed=_corrected_only(linear_sums.sum_H1_power),
    oracle=_series(lambda a, s: Summand((1,), ((a, s),))),
    grid=_grid(a=_A5, s=(2, 3)),
))

_register(Identity(
    id="eq1.28",
    params={"a": positive, "s": Integer(1)},
    description="partial-fraction value of sum 1/(n (n+a)^s)",
    closed=_corrected_only(linear_sums.sum_recip_shift),
    oracle=_series(lambda a, s: Summand((), ((0, 1), (a, s)))),
    grid=_grid(a=_A5, s=(1, 2)),
))

_register(Identity(
    id="eq2.9",
    params={"a": positive, "b": positive},
    check=_distinct,
    description="bilinear sum H_n/((n+a)(n+b)); corrected middle-term sign",
    closed=lambda variant, a, b: linear_sums.sum_H1_bilinear(
        a, b, as_printed=variant is Variant.AS_PRINTED),
    oracle=_series(lambda a, b: Summand((1,), ((a, 1), (b, 1)))),
    has_printed_variant=True,
    grid=({"a": 0.5, "b": 1.0}, {"a": 1.0, "b": 2.0}, {"a": 1.5, "b": 2.5},
          {"a": 2.5, "b": 10.0 / 3.0}, {"a": 0.5, "b": 2.5}),
))

_register(Identity(
    id="eq2.13",
    params={"a": positive, "k": Integer(1), "m": Integer(1)},
    description="window sum of H_n^(m) over (n+a)(n+a+k)",
    closed=_corrected_only(linear_sums.sum_Hm_window),
    oracle=_series(lambda a, k, m: Summand((m,), _window(a, k))),
    grid=_grid(a=(0.5, 2.5), k=(1, 2), m=(1, 2, 3)),
))

_register(Identity(
    id="eq2.14",
    params={"a": positive, "m": Integer(1)},
    description="moment of Li_m: sum 1/(n^m (n+a))",
    closed=_corrected_only(linear_sums.polylog_moment),
    oracle=_series(lambda a, m: Summand((), ((0, m), (a, 1)))),
    grid=_grid(a=_A5, m=(2, 3)),
))

_register(Identity(
    id="eq2.18",
    params={"k": Integer(1), "m": Integer(1)},
    description="integer window sum H_n^(m)/(n(n+k))",
    closed=_corrected_only(lambda k, m: _display_2_18(int(k), int(m))),
    oracle=_series(lambda k, m: Summand((m,), ((0, 1), (k, 1)))),
    grid=_grid(k=(2, 5), m=(1, 2, 3)),
))

_register(Identity(
    id="eq2.19",
    params={"r": Integer(1), "k": Integer(1), "m": Integer(1)},
    check=_k_above_r,
    description="integer window sum H_n^(m)/((n+r)(n+k))",
    closed=_corrected_only(lambda r, k, m: _display_2_19(int(r), int(k), int(m))),
    oracle=_series(lambda r, k, m: Summand((m,), ((r, 1), (k, 1)))),
    grid=({"r": 1, "k": 2, "m": 1}, {"r": 1, "k": 2, "m": 2}, {"r": 1, "k": 3, "m": 3},
          {"r": 2, "k": 5, "m": 1}, {"r": 2, "k": 5, "m": 2}, {"r": 2, "k": 5, "m": 3}),
))

_register(Identity(
    id="eq2.20",
    params={"a": positive, "k": Integer(1)},
    description="m=1 window sum, evaluated from the general window form "
                "(printed display has an unbound order superscript)",
    closed=_corrected_only(lambda a, k: linear_sums.sum_Hm_window(a, k, 1)),
    oracle=_series(lambda a, k: Summand((1,), _window(a, k))),
    grid=_grid(a=(0.5, 2.5), k=(1, 2, 3)),
))

_register(Identity(
    id="eq2.21",
    params={"a": positive, "k": Integer(1)},
    description="window sum of H_n^(2) in shifted-harmonic form",
    closed=_corrected_only(lambda a, k: _display_2_21(float(a), int(k))),
    oracle=_series(lambda a, k: Summand((2,), _window(a, k))),
    grid=_grid(a=(0.5, 2.5), k=(1, 2, 3)),
))

_register(Identity(
    id="eq2.22",
    params={"a": positive, "k": Integer(1)},
    description="window sum of H_n^2",
    closed=_corrected_only(linear_sums.sum_H1sq_window),
    oracle=_series(lambda a, k: Summand((1, 1), _window(a, k))),
    grid=_grid(a=_A3, k=(1, 2)),
))

_register(Identity(
    id="eq2.27",
    params={"a": positive, "k": Integer(1)},
    description="window sum of H_n^2 - H_n^(2) equals the Y_2 window",
    closed=_corrected_only(linear_sums.sum_sq_diff_window),
    oracle=_series(lambda a, k: Summand(numerator=((1.0, (1, 1)), (-1.0, (2,))),
                                        den=_window(a, k))),
    grid=_grid(a=_A3, k=(1, 2)),
))

_register(Identity(
    id="eq2.28",
    params={"a": positive, "k": Integer(1)},
    description="window sum of H_n H_n^(2)",
    closed=_corrected_only(linear_sums.sum_H1H2_window),
    oracle=_series(lambda a, k: Summand((1, 2), _window(a, k))),
    grid=_grid(a=_A3, k=(1, 2)),
))

_register(Identity(
    id="eq2.29",
    params={"a": positive, "k": Integer(1)},
    description="window sum of H_n^3",
    closed=_corrected_only(linear_sums.sum_H1cubed_window),
    oracle=_series(lambda a, k: Summand((1, 1, 1), _window(a, k))),
    tol=1e-6,
    grid=_grid(a=_A3, k=(1, 2)),
))

_register(Identity(
    id="eq2.36",
    params={"a": positive, "k": Integer(1)},
    description="cubic Stirling window: H_n^3 - 3 H_n H_n^(2) + 2 H_n^(3)",
    closed=_corrected_only(linear_sums.cubic_stirling_window),
    oracle=_series(lambda a, k: Summand(numerator=((1.0, (1, 1, 1)), (-3.0, (1, 2)), (2.0, (3,))),
                                        den=_window(a, k))),
    tol=1e-6,
    grid=_grid(a=_A3, k=(1, 2)),
))

_register(Identity(
    id="eq2.37",
    params={"a": positive, "k": Integer(1)},
    description="window sum of H_n^(3)",
    closed=_corrected_only(lambda a, k: linear_sums.sum_Hm_window(a, k, 3)),
    oracle=_series(lambda a, k: Summand((3,), _window(a, k))),
    grid=_grid(a=(0.5, 2.5), k=(1, 2, 3)),
))

_register(Identity(
    id="eq3.9",
    params={"a": positive, "b": positive, "k": Integer(1), "p": Integer(1)},
    check=_no_resonance,
    description="reciprocal-binomial sum of H_n with power factor",
    closed=_corrected_only(wsums.w_1_p),
    oracle=_series(lambda a, b, k, p: Summand((1,), ((a, p),), binom=(k, b))),
    grid=tuple(dict(base, **kp) for base in ({"a": 1.0, "b": 0.5}, {"a": 0.5, "b": 1.0},
                                             {"a": 2.0, "b": 0.25})
               for kp in ({"k": 2, "p": 1}, {"k": 2, "p": 2}, {"k": 3, "p": 1})),
))

_register(Identity(
    id="eq3.11",
    params={"b": nonnegative, "k": Integer(2), "m": Integer(1)},
    description="reciprocal-binomial sum of H_n^(m), no power factor",
    closed=_corrected_only(wsums.w_m_0),
    oracle=_series(lambda b, k, m: Summand((m,), binom=(k, b))),
    grid=_grid(b=(0.0, 0.5), k=(2, 3), m=(1, 2, 3)),
))

_register(Identity(
    id="eq3.13",
    params={"a": positive, "k": Integer(1), "m": Integer(1)},
    description="reciprocal-binomial sum of H_n^(m) with one power of (n+a)",
    closed=_corrected_only(wsums.w_m_1),
    oracle=_series(lambda a, k, m: Summand((m,), ((a, 1),), binom=(k, a))),
    grid=_grid(a=(0.5, 1.0), k=(1, 2), m=(1, 2, 3)),
))

_register(Identity(
    id="eq3.15",
    params={"b": nonnegative, "k": Integer(2)},
    description="reciprocal-binomial sum of H_n^2; corrected H_(b+1) factor",
    closed=lambda variant, b, k: wsums.w_11_0(b, k, as_printed=variant is Variant.AS_PRINTED),
    oracle=_series(lambda b, k: Summand((1, 1), binom=(k, b))),
    has_printed_variant=True,
    grid=_grid(b=(0.0, 0.5, 1.0), k=(2, 3)),
))

_register(Identity(
    id="eq3.16",
    params={"a": positive, "k": Integer(1)},
    description="reciprocal-binomial sum of H_n^2 with one power of (n+a)",
    closed=_corrected_only(wsums.w_111),
    oracle=_series(lambda a, k: Summand((1, 1), ((a, 1),), binom=(k, a))),
    grid=_grid(a=_A3, k=(1, 2)),
))

_register(Identity(
    id="w110",
    params={"k": Integer(2)},
    description="classical H_n^2/binom(n+k,k) value",
    closed=_corrected_only(wsums.classical_w110),
    oracle=_series(lambda k: Summand((1, 1), binom=(k, 0.0))),
    grid=_grid(k=(2, 3, 4, 5, 6)),
))

_register(Identity(
    id="w111",
    params={"k": Integer(1)},
    description="classical H_n^2/(n binom(n+k,k)) value",
    closed=_corrected_only(wsums.classical_w111),
    oracle=_series(lambda k: Summand((1, 1), ((0, 1),), binom=(k, 0.0))),
    grid=_grid(k=(1, 2, 3)),
))

_register(Identity(
    id="eq4.2",
    params={"a": positive, "b": positive},
    check=_distinct,
    description="alternating-numerator bilinear sum; symmetric half factors",
    closed=lambda variant, a, b: linear_sums.sum_H1_bilinear(
        a, b, alternating=True, as_printed=variant is Variant.AS_PRINTED),
    oracle=_series(lambda a, b: Summand((1,), ((a, 1), (b, 1)), alternating=True)),
    has_printed_variant=True,
    tol=1e-7,
    grid=({"a": 0.5, "b": 1.0}, {"a": 1.0, "b": 2.0}, {"a": 0.5, "b": 2.5}),
))

_register(Identity(
    id="eq4.3",
    params={"a": nonnegative, "s": Integer(2)},
    description="alternating-numerator power sum over (n+a)^s",
    closed=_corrected_only(linear_sums.alt_sum_H1_power),
    oracle=_series(lambda a, s: Summand((1,), ((a, s),), alternating=True)),
    grid=_grid(a=(0.0, 1.0, 2.0), s=(2, 3)),
))

_register(Identity(
    id="eq4.5",
    params={"a": positive, "b": positive, "k": Integer(1), "p": Integer(1)},
    check=_no_resonance,
    description="alternating-numerator reciprocal-binomial sum with power factor",
    closed=_corrected_only(
        lambda a, b, k, p: wsums.w_1_p(a, b, k, p, alternating=True)),
    oracle=_series(lambda a, b, k, p: Summand((1,), ((a, p),), binom=(k, b),
                                              alternating=True)),
    grid=tuple(dict(base, k=2, p=p) for base in ({"a": 1.0, "b": 0.5}, {"a": 0.5, "b": 1.0})
               for p in (1, 2)),
))

_register(Identity(
    id="eq4.7",
    params={"a": Integer(0), "k": Integer(1), "m": Integer(1)},
    description="alternating-numerator window sum; integer shifts only",
    closed=_corrected_only(linear_sums.alt_sum_Hm_window),
    oracle=_series(lambda a, k, m: Summand((m,), _window(a, k), alternating=True)),
    grid=_grid(a=(0, 1, 2), k=(1, 2), m=(1, 2)),
))

_register(Identity(
    id="eq4.10",
    params={"k": Integer(1), "m": Integer(1)},
    description="alternating window display specialized to zero shift",
    closed=_corrected_only(lambda k, m: _display_4_10(int(k), int(m))),
    oracle=_series(lambda k, m: Summand((m,), ((0, 1), (k, 1)), alternating=True)),
    grid=_grid(k=(2, 5), m=(1, 2, 3)),
))

_register(Identity(
    id="eq4.11",
    params={"r": Integer(1), "k": Integer(1), "m": Integer(1)},
    check=_k_above_r,
    description="alternating window display specialized to integer shift r",
    closed=_corrected_only(lambda r, k, m: _display_4_11(int(r), int(k), int(m))),
    oracle=_series(lambda r, k, m: Summand((m,), ((r, 1), (k, 1)), alternating=True)),
    grid=({"r": 1, "k": 2, "m": 1}, {"r": 1, "k": 2, "m": 2}, {"r": 1, "k": 3, "m": 1},
          {"r": 1, "k": 3, "m": 2}, {"r": 2, "k": 3, "m": 1}, {"r": 2, "k": 3, "m": 2}),
))

_register(Identity(
    id="eq4.12",
    params={"a": Integer(0), "k": Integer(2), "m": Integer(1)},
    description="alternating-numerator reciprocal-binomial sum, no power factor",
    closed=_corrected_only(wsums.w_alt_m_0),
    oracle=_series(lambda a, k, m: Summand((m,), binom=(k, a), alternating=True)),
    grid=_grid(a=(0, 1), k=(2, 3), m=(1, 2)),
))

_register(Identity(
    id="eq4.13",
    params={"a": Integer(1), "k": Integer(1), "m": Integer(1)},
    description="alternating-numerator reciprocal-binomial sum with (n+a) factor",
    closed=_corrected_only(wsums.w_alt_m_1),
    oracle=_series(lambda a, k, m: Summand((m,), ((a, 1),), binom=(k, a), alternating=True)),
    grid=_grid(a=(1, 2), k=(1, 2), m=(1, 2)),
))


def _ymoment_oracle(cfg, m: int, a: float) -> EvalResult:
    res = quadrature(Integrand.LOG_POW_MOMENT, {"a": a, "m": m},
                     tol=max(1e-13, cfg.target_tol / 10.0))
    return EvalResult(
        value=(-1.0) ** m * a * res.value,
        abs_error_estimate=res.abs_error_estimate * abs(a),
        method=res.method, work=res.work,
    )


_register(Identity(
    id="eq2.2",
    params={"m": Integer(0), "a": positive},
    description="log-power moment recurrence vs tanh-sinh quadrature",
    closed=_corrected_only(lambda m, a: y_moment(int(m), float(a))),
    oracle=lambda cfg, m, a: _ymoment_oracle(cfg, int(m), float(a)),
    tol=1e-10,
    grid=_grid(m=(1, 2, 3, 4), a=(0.5, 1.0, 2.5, math.pi)),
))


# generating-function / lemma identities: closed = displayed right side,
# oracle = direct summation of the left side (term by term for eq1.19, eq1.23)
def _gf_closed(kind: linear_sums.GfKind):
    def closed(variant: Variant, **p):
        return linear_sums.gf_rhs(kind, **p)

    return closed


def _gf_oracle(kind: linear_sums.GfKind):
    def oracle(cfg, **p):
        res = linear_sums.gf_lhs(kind, cfg.target_tol, **p)
        # relative above 1, as verify_identity holds the residual: the
        # roundoff part of the bound grows with the sum near x = 1
        limit = cfg.target_tol * max(1.0, abs(res.value))
        if res.bound > limit:
            raise ConvergenceError(f"generating-function series: certified error "
                                   f"{res.bound:.3e} exceeds target {limit:.3e}")
        return EvalResult(value=res.value, abs_error_estimate=res.bound,
                          method=Method.TRUNCATED, work=res.work)

    return oracle


# The grids of eq1.24, eq1.25 and eq1.31 are fixed draws: x, y uniform on
# (-0.88, 0.88) and a on (0.05, 3), rounded to 6 digits, and integer s, m, p,
# taken once from a seeded generator and written out here.
_register(Identity(
    id="eq1.24",
    params={"x": inside_unit, "y": inside_unit, "a": unconstrained, "s": Integer(1)},
    description="two-variable parametric product series identity",
    closed=_gf_closed(linear_sums.GfKind.LEMMA13_TWO_VAR),
    oracle=_gf_oracle(linear_sums.GfKind.LEMMA13_TWO_VAR),
    tol=1e-9,
    grid=(
        {"x": -0.486724, "y": 0.239049, "a": 0.698685, "s": 3},
        {"x": -0.669345, "y": -0.736856, "a": 1.554072, "s": 3},
        {"x": 0.336332, "y": 0.521161, "a": 2.042753, "s": 2},
        {"x": -0.412456, "y": 0.298178, "a": 0.337561, "s": 2},
        {"x": 0.491414, "y": 0.854201, "a": 2.071836, "s": 3},
        {"x": 0.059439, "y": -0.392302, "a": 0.488526, "s": 2},
        {"x": 0.334868, "y": -0.168546, "a": 2.123333, "s": 1},
        {"x": 0.019625, "y": 0.20526, "a": 2.656019, "s": 3},
        {"x": -0.578334, "y": 0.597977, "a": 1.065578, "s": 1},
    ),
))

_register(Identity(
    id="eq1.25",
    params={"x": inside_unit, "a": unconstrained, "s": Integer(2)},
    description="one-variable parametric product series identity",
    closed=_gf_closed(linear_sums.GfKind.LEMMA13),
    oracle=_gf_oracle(linear_sums.GfKind.LEMMA13),
    tol=1e-9,
    grid=(
        {"x": 0.815548, "a": 1.177015, "s": 4},
        {"x": -0.781434, "a": 2.829458, "s": 4},
        {"x": 0.433087, "a": 1.179545, "s": 4},
        {"x": 0.02595, "a": 2.553903, "s": 2},
        {"x": 0.182473, "a": 0.695192, "s": 4},
        {"x": 0.7339, "a": 0.95186, "s": 2},
        {"x": -0.205319, "a": 1.05394, "s": 2},
        {"x": 0.197061, "a": 0.10501, "s": 3},
        {"x": 0.313055, "a": 0.628808, "s": 3},
    ),
))

_register(Identity(
    id="eq1.29",
    params={"x": inside_unit},
    description="generating function of H_n H_n^(2)",
    closed=_gf_closed(linear_sums.GfKind.HN_H2),
    oracle=_gf_oracle(linear_sums.GfKind.HN_H2),
    tol=1e-9,
    grid=tuple({"x": v} for v in (-0.8, -0.3, 0.25, 0.5, 0.8)),
))

_register(Identity(
    id="eq1.30",
    params={"x": inside_unit, "m": Integer(2)},
    description="generating function of H_n H_n^(m)",
    closed=_gf_closed(linear_sums.GfKind.HN_HM),
    oracle=_gf_oracle(linear_sums.GfKind.HN_HM),
    tol=1e-9,
    grid=_grid(x=(-0.8, 0.3, 0.7), m=(2, 3)),
))

_register(Identity(
    id="eq1.31",
    params={"x": inside_unit, "y": inside_unit, "p": Integer(1), "m": Integer(1)},
    description="reflection of nested double sums",
    closed=_gf_closed(linear_sums.GfKind.NESTED_REFLECT),
    oracle=_gf_oracle(linear_sums.GfKind.NESTED_REFLECT),
    tol=1e-9,
    grid=(
        {"x": -0.309731, "y": -0.346662, "p": 2, "m": 1},
        {"x": 0.188488, "y": -0.553266, "p": 2, "m": 1},
        {"x": -0.168185, "y": -0.518769, "p": 2, "m": 1},
        {"x": 0.459639, "y": 0.323265, "p": 1, "m": 2},
        {"x": 0.811596, "y": -0.573377, "p": 2, "m": 2},
        {"x": -0.185632, "y": -0.060703, "p": 2, "m": 2},
        {"x": 0.195283, "y": -0.200256, "p": 2, "m": 2},
        {"x": -0.819852, "y": -0.325524, "p": 2, "m": 2},
    ),
))

_register(Identity(
    id="eq2.25",
    params={"x": inside_unit},
    description="generating function of H_n^2 - H_n^(2)",
    closed=_gf_closed(linear_sums.GfKind.SQ_DIFF),
    oracle=_gf_oracle(linear_sums.GfKind.SQ_DIFF),
    tol=1e-9,
    grid=tuple({"x": v} for v in (-0.5, 0.25, 0.6, 0.85)),
))

_register(Identity(
    id="eq1.19",
    params={"x": positive_below_one, "a": positive, "b": positive, "n": Integer(1),
            "m": Integer(1)},
    description="moment integral of the shifted power series H_m(t,a)",
    closed=_gf_closed(linear_sums.GfKind.MOMENT_IDENT),
    oracle=_gf_oracle(linear_sums.GfKind.MOMENT_IDENT),
    tol=1e-9,
    grid=_grid(x=(0.3, 0.8), n=(1, 4), a=(0.5, 2.0), b=(0.5, 2.0), m=(2, 3)),
))

_register(Identity(
    id="eq1.23",
    params={"x": positive_below_one, "b": positive, "n": Integer(1), "m": Integer(1)},
    description="moment integral of Li_m over (0, x)",
    closed=_gf_closed(linear_sums.GfKind.MOMENT_IDENT_ZERO),
    oracle=_gf_oracle(linear_sums.GfKind.MOMENT_IDENT_ZERO),
    tol=1e-9,
    grid=_grid(x=(0.3, 0.8), n=(1, 4), b=(0.5, 2.0), m=(2, 3)),
))


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
