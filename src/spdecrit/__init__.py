"""Symbolic criticality analysis for noise-driven PDE specs, plus the
numerical experiments that back the bookkeeping.

The names below load their module on first access, so a process that
runs only the lab never imports the symbolic half.
"""

__version__ = "0.3.0"


def _export_lazily(namespace: dict, exports: dict) -> dict:
    """Export the names of `exports` (submodule -> names) from the package
    whose globals are `namespace`: each imports its submodule on first
    access (PEP 562) and is then kept.  Returns name -> module path."""
    package = namespace["__name__"]
    where = {name: f"{package}.{module}" for module, names in exports.items() for name in names}

    def __getattr__(name):
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        from importlib import import_module

        value = namespace[name] = getattr(import_module(where[name]), name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(where))

    namespace.update(__all__=list(where), __getattr__=__getattr__, __dir__=__dir__)
    return where


_MODULE_OF = _export_lazily(globals(), {
    "affine": ("DimExpr", "RegBound", "ScalingInfo"),
    "rules": ("noise_regularity", "product_analytic", "schauder_gain", "zero_order_operator"),
    "dsl": ("SpdeSpec", "NonlinearTerm", "parse_spec", "validate_spec", "load_bundled_spec"),
    "expansion": ("CriticalityReport", "ProductTerm", "expand", "renormalization_flags"),
})
