"""Calculus of open regularity bounds: noise, products, derivatives, lifts.

The product rule comes in two flavours.  Homogeneity counting simply adds
suprema and is what the tree expansion uses at symbolic dimension.  The
analytic rule decides whether a product of two distributions exists at
all: it does if and only if the two suprema sum to something positive,
and then the product lives at min(a, b, a + b).  Bounds are open, so a
sum landing exactly on zero is still ill-defined.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .affine import DimExpr, RegBound, ScalingInfo, RationalLike, as_fraction, from_ints

SPACE_TIME_WHITE = "stwn"
SPATIAL_WHITE = "spatial_white"

NOISE_KINDS = (SPACE_TIME_WHITE, SPATIAL_WHITE)
_MINUS_HALF = Fraction(-1, 2)


def noise_regularity(kind: str, scaling: ScalingInfo, lift_alpha: RationalLike = 0) -> RegBound:
    """Open bound for the driving noise, lifted by a fractional Laplacian of order alpha.

    Space-time white noise sits below -(s0 + d)/2; purely spatial white
    noise below -d/2.  A lift of order alpha costs alpha more.
    """
    alpha = as_fraction(lift_alpha)
    if alpha < 0:
        raise ValueError(f"negative noise lift: {alpha}")
    if kind == SPACE_TIME_WHITE:
        sup = scaling.weight * _MINUS_HALF
    elif kind == SPATIAL_WHITE:
        sup = scaling.dim * _MINUS_HALF
    else:
        raise ValueError(f"unknown noise kind: {kind!r}")
    return RegBound(sup - DimExpr.const(alpha) if alpha else sup)


def product_homogeneity(a: RegBound, b: RegBound) -> RegBound:
    """Homogeneity of a product: suprema add."""
    return RegBound(a.sup + b.sup)


def product_analytic(a: RegBound, b: RegBound, d: int) -> Optional[RegBound]:
    """Analytic product at a concrete dimension.

    Returns the resulting bound when the product is well-defined
    (sum of suprema strictly positive), or None when it is not.
    The None outcome is a value, not an error: it marks a product
    needing renormalization.
    """
    x, y = a.sup, b.sup
    # both values at d over the common denominator x.q * y.q
    asup = (x.p0 + x.pd * d) * y.q
    bsup = (y.p0 + y.pd * d) * x.q
    total = asup + bsup
    if total <= 0:
        return None
    return RegBound(from_ints(min(asup, bsup, total), 0, x.q * y.q))


def apply_derivative(a: RegBound, k: RationalLike) -> RegBound:
    """Differentiating k times costs k orders of regularity; k = 0 returns `a` itself."""
    k = as_fraction(k)
    if k < 0:
        raise ValueError(f"negative derivative order: {k}")
    if not k:
        return a
    return RegBound(a.sup - DimExpr.const(k))


def schauder_gain(a: RegBound, order: RationalLike) -> RegBound:
    """Solving against a dissipative operator of the given order gains that order."""
    order = as_fraction(order)
    if order <= 0:
        raise ValueError(f"schauder gain needs a positive order, got {order}")
    return RegBound(a.sup + DimExpr.const(order))


def zero_order_operator(a: RegBound) -> RegBound:
    """Order-zero maps (Leray projection, Riesz transforms) cost nothing."""
    return a
