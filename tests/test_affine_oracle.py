"""The integer-backed DimExpr against the Fraction-backed one it replaced."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import FractionDimExpr, format_affine_oracle
from spdecrit.affine import DimExpr, RegBound, format_affine
from spdecrit.report import affine_to_json
from spdecrit.rules import product_analytic

rationals = st.fractions(max_denominator=12, min_value=-8, max_value=8)
# ints and zero slopes drawn often: both take their own paths
coefficients = st.one_of(st.just(0), st.integers(-8, 8), rationals)
slopes = st.one_of(st.just(0), st.just(Fraction(0)), coefficients)
scalars = st.one_of(st.integers(-6, 6), rationals)
pairs = st.builds(lambda c0, cd: (DimExpr(c0, cd), FractionDimExpr(Fraction(c0), Fraction(cd))), coefficients, slopes)


def assert_same(e, o):
    """e, an integer DimExpr, holds the value of o, the oracle, and shows it the same way."""
    assert type(e) is DimExpr
    assert (e.c0, e.cd) == (o.c0, o.cd)
    assert type(e.c0) is Fraction and type(e.cd) is Fraction
    assert repr(e) == repr(o).replace("FractionDimExpr", "DimExpr", 1)
    assert hash(e) == hash(o)
    assert format_affine(e) == str(e) == format_affine_oracle(o)
    assert affine_to_json(e) == {"c0": str(o.c0), "cd": str(o.cd)}


@given(pairs, pairs, scalars)
def test_arithmetic_matches_the_fraction_oracle(a, b, s):
    (ea, oa), (eb, ob) = a, b
    assert_same(ea, oa)
    assert_same(ea + eb, oa + ob)
    assert_same(ea - eb, oa - ob)
    assert_same(-ea, -oa)
    assert_same(ea + s, oa + s)
    assert_same(s + ea, s + oa)
    assert_same(ea - s, oa - s)
    assert_same(s - ea, s - oa)
    assert_same(ea * s, oa * s)
    assert_same(s * ea, s * oa)
    assert (ea == eb) == (oa == ob) and (ea != eb) == (oa != ob)
    assert ea == DimExpr(oa.c0, oa.cd)


@given(pairs, st.one_of(st.integers(1, 9), st.fractions(max_denominator=12, min_value=1, max_value=9)))
def test_evaluate_matches_the_fraction_oracle(a, d):
    e, o = a
    value = e.evaluate(d)
    assert type(value) is Fraction and value == o.evaluate(d)


@given(coefficients, slopes, coefficients, slopes, st.integers(1, 5))
def test_product_analytic_is_the_min_rule(a0, ad, b0, bd, d):
    oa, ob = FractionDimExpr(Fraction(a0), Fraction(ad)), FractionDimExpr(Fraction(b0), Fraction(bd))
    got = product_analytic(RegBound(DimExpr(a0, ad)), RegBound(DimExpr(b0, bd)), d)
    a, b = oa.evaluate(d), ob.evaluate(d)
    if a + b <= 0:
        assert got is None
    else:
        assert_same(got.sup, FractionDimExpr(min(a, b, a + b), Fraction(0)))


@pytest.mark.parametrize("name", ["c0", "cd", "p0", "pd", "q", "other"])
def test_fields_are_read_only(name):
    e = DimExpr(Fraction(1, 2), Fraction(-1))
    with pytest.raises(AttributeError):
        setattr(e, name, 1)
    with pytest.raises(AttributeError):
        delattr(e, name)
    assert (e.p0, e.pd, e.q) == (1, -2, 2)
