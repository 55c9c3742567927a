"""Bound calculus: noise regularity, products, derivatives, lifts."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spdecrit.affine import DimExpr, RegBound, ScalingInfo
from spdecrit.rules import (
    SPACE_TIME_WHITE,
    SPATIAL_WHITE,
    apply_derivative,
    noise_regularity,
    product_analytic,
    product_homogeneity,
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


def test_product_homogeneity_examples():
    a = RegBound.of(1, Fraction(-1, 2))
    assert product_homogeneity(a, a).sup == DimExpr(Fraction(2), Fraction(-1))
    x = RegBound.of(Fraction(5, 7), Fraction(-2, 3))
    assert product_homogeneity(RegBound.of(0), x) == x
    b = RegBound.of(3, -1)
    assert product_homogeneity(b, a).sup == DimExpr(Fraction(4), Fraction(-3, 2))


def test_product_analytic_open_boundary():
    a = RegBound.of(1, Fraction(-1, 2))
    assert product_analytic(a, a, 2) is None  # suprema sum to exactly zero


def test_product_analytic_min_rule():
    assert product_analytic(RegBound.of(2), RegBound.of(3), 1).sup == DimExpr(Fraction(2))
    r = product_analytic(RegBound.of(Fraction(-1, 4)), RegBound.of(1), 1)
    assert r.sup == DimExpr(Fraction(-1, 4))


def test_apply_derivative_examples():
    assert apply_derivative(RegBound.of(2, -1), 1).sup == DimExpr(Fraction(1), Fraction(-1))
    x = RegBound.of(Fraction(3, 5), Fraction(1, 3))
    assert apply_derivative(x, 0) == x
    with pytest.raises(ValueError):
        apply_derivative(x, -1)


orders = st.one_of(
    st.just(0), st.just(Fraction(0)), st.just("0"), st.integers(0, 4),
    st.fractions(min_value=0, max_value=4, max_denominator=8),
)


@given(st.builds(lambda c0, cd: RegBound(DimExpr(c0, cd)), rationals, rationals), orders)
def test_apply_derivative_costs_k_and_returns_its_operand_at_zero(a, k):
    assert apply_derivative(a, k) == RegBound(a.sup - DimExpr.const(k))
    if Fraction(k) == 0:
        assert apply_derivative(a, k) is a
    with pytest.raises(ValueError):
        apply_derivative(a, -Fraction(k) - Fraction(1, 8))


def test_sqg_style_composition():
    # double a bound, then one derivative; recomputed by hand
    base = RegBound(DimExpr(Fraction(-1)))  # -1 - alpha + gamma with alpha=gamma=0 placeholder
    alpha, gamma = Fraction(1, 4), Fraction(1, 2)
    solved = schauder_gain(RegBound(DimExpr(Fraction(-1) - alpha)), gamma)
    doubled = product_homogeneity(solved, solved)
    final = apply_derivative(doubled, 1)
    assert final.sup == DimExpr(Fraction(-3) - 2 * alpha + 2 * gamma)


def test_schauder_examples():
    assert schauder_gain(RegBound.of(-1, Fraction(-1, 2)), 2).sup == DimExpr(Fraction(1), Fraction(-1, 2))
    with pytest.raises(ValueError):
        schauder_gain(RegBound.of(1), 0)


def test_zero_order_identity():
    for b in (RegBound.of(1, Fraction(-1, 2)), RegBound.of(Fraction(-5, 4)), RegBound.of(0)):
        assert zero_order_operator(b) == b


@given(bounds, bounds)
def test_homogeneity_commutative(a, b):
    assert product_homogeneity(a, b) == product_homogeneity(b, a)


@given(bounds, bounds, bounds)
def test_homogeneity_associative(a, b, c):
    left = product_homogeneity(product_homogeneity(a, b), c)
    right = product_homogeneity(a, product_homogeneity(b, c))
    assert left == right


@given(bounds, st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8))
def test_schauder_then_derivative_is_identity(a, g):
    assert apply_derivative(schauder_gain(a, g), g) == a


@given(bounds, bounds)
def test_analytic_never_exceeds_homogeneity(a, b):
    result = product_analytic(a, b, 1)
    if result is not None:
        assert result.sup.c0 <= product_homogeneity(a, b).sup.c0


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
