"""Bound calculus: noise regularity, products, derivatives, lifts."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spdecrit.affine import DimExpr, RegBound, ScalingInfo
from spdecrit.rules import (
    SPACE_TIME_WHITE,
    SPATIAL_WHITE,
    noise_regularity,
    product_analytic,
    schauder_gain,
    zero_order_operator,
)

HEAT_SYM = ScalingInfo(Fraction(2), DimExpr.dim())

rationals = st.fractions(max_denominator=8, min_value=-6, max_value=6)
bounds = st.builds(lambda c: RegBound(DimExpr(c)), rationals)


def test_space_time_white_symbolic():
    b = noise_regularity(SPACE_TIME_WHITE, HEAT_SYM, 0)
    assert b.sup == DimExpr(Fraction(-1), Fraction(-1, 2))


def test_spatial_white_two_dims():
    b = noise_regularity(SPATIAL_WHITE, ScalingInfo(Fraction(1, 2), DimExpr.const(2)), 0)
    assert b.sup == DimExpr(Fraction(-1))


def test_space_time_white_degenerate_dim():
    b = noise_regularity(SPACE_TIME_WHITE, ScalingInfo(Fraction(2), DimExpr.const(0)), 0)
    assert b.sup == DimExpr(Fraction(-1))


def test_negative_lift_rejected():
    with pytest.raises(ValueError):
        noise_regularity(SPACE_TIME_WHITE, HEAT_SYM, Fraction(-1))


def test_product_analytic_open_boundary():
    a = RegBound.of(1, Fraction(-1, 2))
    assert product_analytic(a, a, 2) is None  # suprema sum to exactly zero


def test_product_analytic_min_rule():
    assert product_analytic(RegBound.of(2), RegBound.of(3), 1).sup == DimExpr(Fraction(2))
    r = product_analytic(RegBound.of(Fraction(-1, 4)), RegBound.of(1), 1)
    assert r.sup == DimExpr(Fraction(-1, 4))


def test_sqg_style_composition():
    # double a bound, then one derivative; recomputed by hand
    base = RegBound(DimExpr(Fraction(-1)))  # -1 - alpha + gamma with alpha=gamma=0 placeholder
    alpha, gamma = Fraction(1, 4), Fraction(1, 2)
    solved = schauder_gain(RegBound(DimExpr(Fraction(-1) - alpha)), gamma)
    doubled = solved.sup + solved.sup
    final = RegBound(doubled - DimExpr.const(1))  # one derivative
    assert final.sup == DimExpr(Fraction(-3) - 2 * alpha + 2 * gamma)


def test_schauder_examples():
    assert schauder_gain(RegBound.of(-1, Fraction(-1, 2)), 2).sup == DimExpr(Fraction(1), Fraction(-1, 2))
    with pytest.raises(ValueError):
        schauder_gain(RegBound.of(1), 0)


def test_zero_order_identity():
    for b in (RegBound.of(1, Fraction(-1, 2)), RegBound.of(Fraction(-5, 4)), RegBound.of(0)):
        assert zero_order_operator(b) == b


@given(bounds, st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8))
def test_schauder_then_derivative_is_identity(a, g):
    # g derivatives cost g orders, which the solve gained
    assert RegBound(schauder_gain(a, g).sup - DimExpr.const(g)) == a


@given(bounds, bounds)
def test_analytic_never_exceeds_homogeneity(a, b):
    result = product_analytic(a, b, 1)
    if result is not None:
        assert result.sup.c0 <= (a.sup + b.sup).c0


@given(
    st.fractions(max_denominator=8, min_value=-6, max_value=0),
    st.fractions(max_denominator=8, min_value=-6, max_value=0),
)
def test_both_nonpositive_is_ill_defined(x, y):
    assert product_analytic(RegBound.of(x), RegBound.of(y), 1) is None


@given(bounds, bounds)
def test_analytic_is_min_of_three(a, b):
    result = product_analytic(a, b, 1)
    s, t = a.sup.c0, b.sup.c0
    if s + t <= 0:
        assert result is None
    else:
        assert result.sup.c0 == min(s, t, s + t)
