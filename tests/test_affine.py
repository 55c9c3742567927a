"""Exact affine arithmetic and bound formatting."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import parse_affine
from spdecrit.affine import DimExpr, RegBound, ScalingInfo, format_affine

rationals = st.fractions(max_denominator=12, min_value=-8, max_value=8)
affines = st.builds(DimExpr, rationals, rationals)


# coefficients as the program builds them (Fractions) and as a caller may
# (ints), with zero slopes drawn often: a zero slope takes the fast path
fields = st.one_of(st.just(0), st.just(Fraction(0)), st.integers(-8, 8), rationals)


@given(fields, fields, fields, fields)
def test_add_and_sub_equal_fraction_arithmetic(a0, ad, b0, bd):
    a, b = DimExpr(a0, ad), DimExpr(b0, bd)
    F = Fraction
    assert (a + b).c0 == F(a0) + F(b0) and (a + b).cd == F(ad) + F(bd)
    assert (a - b).c0 == F(a0) - F(b0) and (a - b).cd == F(ad) - F(bd)
    assert a + b == b + a and a - b == -(b - a)
    assert a + b0 == DimExpr(F(a0) + F(b0), F(ad)) and a - b0 == DimExpr(F(a0) - F(b0), F(ad))
    assert b0 - a == DimExpr(F(b0) - F(a0), -F(ad))


@given(fields, fields, fields)
def test_scalar_mul_equals_fraction_arithmetic(a0, ad, s):
    a, F = DimExpr(a0, ad), Fraction
    assert (a * s).c0 == F(a0) * F(s) and (a * s).cd == F(ad) * F(s)
    assert s * a == a * s


def test_evaluate_is_exact():
    e = DimExpr(Fraction(1), Fraction(-1, 2))
    assert e.evaluate(3) == Fraction(-1, 2)
    assert e.evaluate(Fraction(7, 2)) == Fraction(-3, 4)
    assert isinstance(e.evaluate(5), Fraction)


def test_arithmetic_builds_fractions_without_recoercing(monkeypatch):
    from spdecrit import affine

    a, b = DimExpr.const("1/2"), DimExpr(Fraction(-1), Fraction(3, 4))
    assert a == DimExpr(Fraction(1, 2)) and isinstance(a.c0, Fraction) and isinstance(a.cd, Fraction)
    coerced = []
    real = affine.as_fraction
    monkeypatch.setattr(affine, "as_fraction", lambda x: coerced.append(x) or real(x))
    results = [a + b, a - b, -b, b + 1, 2 - a, a * 3, Fraction(1, 3) * b]
    assert all(isinstance(c, Fraction) for e in results for c in (e.c0, e.cd))
    # only the int and Fraction scalars cross the boundary, never a coefficient
    assert coerced == [1, 2, 3, Fraction(1, 3)]
    assert results == [
        DimExpr(Fraction(-1, 2), Fraction(3, 4)),
        DimExpr(Fraction(3, 2), Fraction(-3, 4)),
        DimExpr(Fraction(1), Fraction(-3, 4)),
        DimExpr(Fraction(0), Fraction(3, 4)),
        DimExpr(Fraction(3, 2)),
        DimExpr(Fraction(3, 2)),
        DimExpr(Fraction(-1, 3), Fraction(1, 4)),
    ]


def test_scaling_weight_heat_three_dims():
    s = ScalingInfo(Fraction(2), DimExpr.const(3))
    assert s.weight.evaluate(0) == 5


def test_symbolic_weight():
    s = ScalingInfo(Fraction(2), DimExpr.dim())
    assert s.weight == DimExpr(Fraction(2), Fraction(1))


@given(affines, affines)
def test_addition_componentwise(a, b):
    c = a + b
    assert c.c0 == a.c0 + b.c0 and c.cd == a.cd + b.cd


@given(affines, rationals, st.integers(min_value=1, max_value=9))
def test_scalar_mul_commutes_with_eval(a, s, d):
    assert (a * s).evaluate(d) == a.evaluate(d) * s


@pytest.mark.parametrize(
    "c0,cd,text",
    [
        (Fraction(1), Fraction(-1, 2), "1 - d/2"),
        (Fraction(3), Fraction(-3, 2), "3 - 3d/2"),
        (Fraction(5), Fraction(-2), "5 - 2d"),
        (Fraction(-1), Fraction(-1, 2), "-1 - d/2"),
        (Fraction(4), Fraction(-1), "4 - d"),
        (Fraction(0), Fraction(1), "d"),
        (Fraction(0), Fraction(-3, 2), "-3d/2"),
        (Fraction(-3, 2), Fraction(0), "-3/2"),
        (Fraction(0), Fraction(0), "0"),
        (Fraction(2), Fraction(2, 3), "2 + 2d/3"),
    ],
)
def test_format_affine_canonical(c0, cd, text):
    assert format_affine(DimExpr(c0, cd)) == text


@given(affines)
def test_format_parse_round_trip(a):
    assert parse_affine(format_affine(a)) == a


def test_bound_ordering_at_concrete_dim():
    a = RegBound.of(1, Fraction(-1, 2))
    b = RegBound.of(3, -1)
    assert a.evaluate(3) < b.evaluate(3)
    assert a.evaluate(4) == b.evaluate(4) + Fraction(0)  # both -1
