"""The package exports load on first access and stay the defining objects."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spdecrit
import spdecrit.lab


def _defining_module(obj):
    return importlib.import_module(obj.__module__)


# The public API, in export-table order: a name joins or leaves only by an
# edit here.
API = {
    "spdecrit": (
        "DimExpr", "RegBound", "ScalingInfo",
        "noise_regularity", "product_analytic", "schauder_gain", "zero_order_operator",
        "SpdeSpec", "NonlinearTerm", "parse_spec", "validate_spec", "load_bundled_spec",
        "CriticalityReport", "ProductTerm", "expand", "renormalization_flags",
    ),
    "spdecrit.lab": (
        "Trajectory", "values_of", "ResolutionError", "synthetic_field", "white_half_spectrum", "lp_fields",
        "fit_window", "estimate_holder_exponent", "bony_decompose",
        "sample_spatial_white", "solve_z1_mild", "solve_z1_mild_batch",
        "BlowupError", "steklov_average", "proof_inequality_gap", "proof_inequality_gap_exact",
        "TychonovSeries", "tychonov_eval", "tychonov_residual", "fd_heat_residual",
    ),
}


@pytest.mark.parametrize("package", [spdecrit, spdecrit.lab], ids=lambda p: p.__name__)
def test_public_api_is_pinned(package):
    assert tuple(package.__all__) == API[package.__name__]
    assert len(API["spdecrit"]) == 16 and len(API["spdecrit.lab"]) == 20


@pytest.mark.parametrize("package", [spdecrit, spdecrit.lab], ids=lambda p: p.__name__)
def test_every_export_resolves_to_its_defining_object(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    for name in package.__all__:
        obj = getattr(package, name)
        assert namespace[name] is obj
        assert getattr(_defining_module(obj), name) is obj
        assert name in dir(package)


def test_named_exports_are_the_module_objects():
    import spdecrit.dsl
    import spdecrit.errors
    import spdecrit.expansion
    import spdecrit.lab.tychonov

    assert spdecrit.expand is spdecrit.expansion.expand
    assert spdecrit.parse_spec is spdecrit.dsl.parse_spec
    assert spdecrit.lab.TychonovSeries is spdecrit.lab.tychonov.TychonovSeries
    assert spdecrit.dsl.SpecError is spdecrit.errors.SpecError
    assert spdecrit.expansion.ExpansionError is spdecrit.errors.ExpansionError
    assert issubclass(spdecrit.dsl.SpecSyntaxError, spdecrit.errors.SpecError)


@pytest.mark.parametrize("package", [spdecrit, spdecrit.lab], ids=lambda p: p.__name__)
def test_unknown_names_raise_attribute_error(package):
    with pytest.raises(AttributeError):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


_FRESH = """\
import sys
import spdecrit
assert [m for m in sys.modules if m.startswith("spdecrit.")] == [], sys.modules
import spdecrit.lab
assert "mpmath" not in sys.modules and "spdecrit.dsl" not in sys.modules
assert "numpy" not in sys.modules and [m for m in sys.modules if m.startswith("spdecrit.lab.")] == [], sys.modules
from spdecrit import *
from spdecrit.lab import *
assert "mpmath" in sys.modules and expand is sys.modules["spdecrit.expansion"].expand
from spdecrit.cli import main
print(main(["analyze", sys.argv[1]]), main(["analyze", "navier_stokes", "--dim", "0"]))
"""


def test_fresh_interpreter_resolves_exports_and_reports_bad_specs(tmp_path):
    bad = tmp_path / "bad.spde"
    bad.write_text("equation x {\n  dimension 3;\n  bogus\n")
    src = str(Path(spdecrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH, str(bad)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "2"]
    assert proc.stderr.splitlines() == [
        "error: 3:3: unknown item 'bogus'",
        "error: E_DIM: dimension must be >= 1, got 0",
    ]


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    meta = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    assert meta["project"]["version"] == spdecrit.__version__
