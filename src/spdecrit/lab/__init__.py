"""Desk-scale numerical experiments backing the symbolic analyzer."""

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
from .noise import sample_spatial_white, solve_z1_mild, solve_z1_finals
from .heat import (
    BlowupError,
    solve_damped_heat,
    solve_damped_heat_batch,
    steklov_average,
    proof_inequality_gap,
    proof_inequality_gap_exact,
    l1_contraction_curve,
)
from .tychonov import TychonovSeries, tychonov_eval, tychonov_residual, fd_heat_residual

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
    "solve_z1_finals",
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
