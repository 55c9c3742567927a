"""Desk-scale numerical experiments backing the symbolic analyzer."""

from .fields import (
    PeriodicField,
    Trajectory,
    ResolutionError,
    synthetic_field,
    littlewood_paley_blocks,
    lp_fields,
    fit_window,
    estimate_holder_exponent,
    holder_quotient_exponent,
    bony_decompose,
)
from .noise import sample_spatial_white, solve_z1_mild
from .heat import (
    BlowupError,
    SmoothTestFunction,
    solve_damped_heat,
    solve_damped_heat_batch,
    weak_residual,
    steklov_average,
    proof_inequality_gap,
    proof_inequality_gap_exact,
    power_difference_residual,
    l1_contraction_curve,
)
from .tychonov import TychonovSeries, tychonov_eval, tychonov_residual, fd_heat_residual

# holder_quotient_exponent, weak_residual and power_difference_residual stay
# importable from here as test oracles but are not part of the public surface
__all__ = [
    "PeriodicField",
    "Trajectory",
    "ResolutionError",
    "BlowupError",
    "SmoothTestFunction",
    "TychonovSeries",
    "synthetic_field",
    "littlewood_paley_blocks",
    "lp_fields",
    "fit_window",
    "estimate_holder_exponent",
    "bony_decompose",
    "sample_spatial_white",
    "solve_z1_mild",
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
