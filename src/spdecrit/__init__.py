"""Symbolic criticality analysis for noise-driven PDE specs, plus the
numerical experiments that back the bookkeeping."""

__version__ = "0.2.0"

from .affine import DimExpr, RegBound, ScalingInfo
from .rules import (
    noise_regularity,
    product_homogeneity,
    product_analytic,
    apply_derivative,
    schauder_gain,
    zero_order_operator,
)
from .dsl import (
    SpdeSpec,
    NonlinearTerm,
    parse_spec,
    validate_spec,
    format_spec,
    load_bundled_spec,
)
from .expansion import (
    CriticalityReport,
    ProductTerm,
    expand,
    gain_per_step,
    classify,
    scaling_exponent,
    renormalization_flags,
)

__all__ = [
    "DimExpr",
    "RegBound",
    "ScalingInfo",
    "noise_regularity",
    "product_homogeneity",
    "product_analytic",
    "apply_derivative",
    "schauder_gain",
    "zero_order_operator",
    "SpdeSpec",
    "NonlinearTerm",
    "parse_spec",
    "validate_spec",
    "format_spec",
    "load_bundled_spec",
    "CriticalityReport",
    "ProductTerm",
    "expand",
    "gain_per_step",
    "classify",
    "scaling_exponent",
    "renormalization_flags",
]
