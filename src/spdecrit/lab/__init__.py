"""Desk-scale numerical experiments backing the symbolic analyzer.

The Tychonov names load `tychonov`, and with it mpmath, on first access.
"""

from .fields import (
    PeriodicField,
    Trajectory,
    ResolutionError,
    synthetic_field,
    white_half_spectrum,
    lp_fields,
    fit_window,
    estimate_holder_exponent,
    bony_decompose,
)
from .noise import sample_spatial_white, solve_z1_mild, solve_z1_mild_batch
from .heat import (
    BlowupError,
    solve_damped_heat,
    solve_damped_heat_batch,
    steklov_average,
    proof_inequality_gap,
    proof_inequality_gap_exact,
    l1_contraction_curve,
)

_TYCHONOV = ("TychonovSeries", "tychonov_eval", "tychonov_residual", "fd_heat_residual")

__all__ = [
    "PeriodicField",
    "Trajectory",
    "ResolutionError",
    "BlowupError",
    "TychonovSeries",
    "synthetic_field",
    "white_half_spectrum",
    "lp_fields",
    "fit_window",
    "estimate_holder_exponent",
    "bony_decompose",
    "sample_spatial_white",
    "solve_z1_mild",
    "solve_z1_mild_batch",
    "solve_damped_heat",
    "solve_damped_heat_batch",
    "steklov_average",
    "proof_inequality_gap",
    "proof_inequality_gap_exact",
    "l1_contraction_curve",
    "tychonov_eval",
    "tychonov_residual",
    "fd_heat_residual",
]


def __getattr__(name):
    if name not in _TYCHONOV:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import tychonov

    return getattr(tychonov, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
