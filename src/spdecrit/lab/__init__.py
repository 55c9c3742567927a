"""Desk-scale numerical experiments backing the symbolic analyzer.

The names below load their module on first access, so `import
spdecrit.lab` loads neither numpy nor mpmath; the Tychonov names bring
in mpmath, the others numpy.
"""

from .. import _export_lazily

_export_lazily(globals(), {
    "fields": (
        "PeriodicField", "Trajectory", "ResolutionError", "synthetic_field", "white_half_spectrum", "lp_fields",
        "fit_window", "estimate_holder_exponent", "bony_decompose",
    ),
    "noise": ("sample_spatial_white", "solve_z1_mild", "solve_z1_mild_batch"),
    "heat": (
        "BlowupError", "steklov_average", "proof_inequality_gap", "proof_inequality_gap_exact",
    ),
    "tychonov": ("TychonovSeries", "tychonov_eval", "tychonov_residual", "fd_heat_residual"),
})
