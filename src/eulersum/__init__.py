"""Closed-form Euler-sum identities with independent numerical verification.

The package evaluates harmonic-number series (bilinear, window, and
reciprocal-binomial shapes, plus alternating variants) through closed forms
built from zeta values and shifted harmonic numbers, and checks every
identity against independent oracles: truncated summation with an analytic
tail correction, tanh-sinh quadrature, and the direct sums of the
generating-function and moment left sides (``gf_lhs``), each with an a-priori
tail bound.
"""

from .errors import ConvergenceError, DomainError, EulersumError, PoleError
from .harmonic import (
    alt_harmonic_num,
    harmonic_num,
    param_harmonic,
    shifted_harmonic,
    stirling1,
    y_moment,
)
from .linear_sums import (
    GfKind,
    GfResult,
    GfSum,
    alt_sum_H1_power,
    alt_sum_Hm_window,
    cubic_stirling_window,
    gf_lhs,
    gf_rhs,
    gf_two_sided,
    polylog_moment,
    sum_H1_bilinear,
    sum_H1_power,
    sum_H1cubed_window,
    sum_H1H2_window,
    sum_H1sq_window,
    sum_Hm_window,
    sum_recip_shift,
    sum_shiftedH_over_nsq,
    sum_sq_diff_window,
)
from .oracle import (
    EvalResult,
    GridResult,
    IdentityCase,
    Integrand,
    Method,
    SeriesConfig,
    Status,
    Summand,
    Variant,
    VerificationRecord,
    grid_verify,
    quadrature,
    truncated_series,
    verify_identity,
)
from .specfun import (
    EULER_GAMMA,
    LN2,
    alt_hurwitz_zeta,
    alt_zeta,
    digamma,
    gamma_fn,
    h_func,
    hurwitz_zeta,
    param_polylog,
    polygamma,
    polylog,
    riemann_zeta,
)
from .wsums import (
    classical_w110,
    classical_w111,
    w_1_p,
    w_11_0,
    w_111,
    w_alt_m_0,
    w_alt_m_1,
    w_m_0,
    w_m_1,
)

__version__ = "0.1.0"
