"""The lab's targets against the analyzer's table.

Each `verify` suite checks a number the symbolic half also computes: the
roughness of the first object, which products are defined, and the
damping powers of the Φ⁴ model.  The suites hold these as constants and
never import the symbolic half; here each is expanded or multiplied out
at the lab's dimension, so a change to the analyzer's rules that moved
one of them fails a test, where every suite would still pass.
"""

from fractions import Fraction

import pytest

from spdecrit import cli, suites
from spdecrit.affine import RegBound
from spdecrit.dsl import load_bundled_spec
from spdecrit.expansion import SUBCRITICAL, expand
from spdecrit.rules import product_analytic


def bound(exponent: float) -> RegBound:
    """A suite's float exponent as the exact bound it stands for."""
    return RegBound.of(Fraction(repr(exponent)))


def test_noise_window_contains_phi4_z1_bound_at_d1():
    # verify noise fits the exponent of z1 in one dimension
    z1 = expand(load_bundled_spec("phi4").with_overrides(dim=1), 1).rows[0].object_bound.evaluate(1)
    low, high = suites._Z1_WINDOW
    assert low <= z1 <= high
    assert z1 == Fraction(1, 2)


def test_bony_resonant_product_is_ill_defined_and_exactness_products_are_not():
    # the resonant fields of verify bony are one-dimensional
    assert product_analytic(bound(suites._RESONANT), bound(suites._RESONANT), 1) is None
    for dim, _, ef, eg in suites._BONY_CASES:
        assert product_analytic(bound(ef), bound(eg), dim) is not None


@pytest.mark.parametrize("n", sorted({*suites._POWERS, cli._SUITES["uniqueness"]["n"][1]}))
def test_lab_powers_are_subcritical_phi4_degrees_at_d1(n):
    # verify inequality sweeps these powers and verify uniqueness damps
    # with its default one; each is phi4 under --param n
    spec = load_bundled_spec("phi4").with_overrides(n=n, dim=1)
    assert spec.nonlinear_terms[0].degree == n
    assert expand(spec).classification.kind == SUBCRITICAL
