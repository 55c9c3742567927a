"""Symbolic criticality analysis for noise-driven PDE specs, plus the
numerical experiments that back the bookkeeping.

The names below load their module on first access, so a process that
runs only the lab never imports the symbolic half.
"""

__version__ = "0.3.0"

_EXPORTS = {
    "affine": ("DimExpr", "RegBound", "ScalingInfo"),
    "rules": (
        "noise_regularity", "product_homogeneity", "product_analytic", "apply_derivative", "schauder_gain",
        "zero_order_operator",
    ),
    "dsl": ("SpdeSpec", "NonlinearTerm", "parse_spec", "validate_spec", "format_spec", "load_bundled_spec"),
    "expansion": (
        "CriticalityReport", "ProductTerm", "expand", "gain_per_step", "classify", "scaling_exponent",
        "renormalization_flags",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
