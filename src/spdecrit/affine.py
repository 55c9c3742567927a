"""Exact affine expressions in the spatial dimension and open regularity bounds.

Every quantity in the symbolic half of the package is a rational affine
function ``c0 + cd*d`` of the dimension ``d``.  Concrete dimensions fold
into the constant part, so "symbolic" and "concrete" runs share one
arithmetic.  No floating point enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[int, str, Fraction]


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class DimExpr:
    """Affine value c0 + cd*d with Fraction coefficients; `const` takes any rational."""

    c0: Fraction
    cd: Fraction = Fraction(0)

    @staticmethod
    def const(x: RationalLike) -> "DimExpr":
        return DimExpr(as_fraction(x))

    @staticmethod
    def dim() -> "DimExpr":
        """The bare symbol d."""
        return DimExpr(Fraction(0), Fraction(1))

    @property
    def is_constant(self) -> bool:
        return self.cd == 0

    def evaluate(self, d: RationalLike) -> Fraction:
        d = as_fraction(d)
        return self.c0 + self.cd * d if self.cd else self.c0

    def __add__(self, other) -> "DimExpr":
        other = _coerce(other)
        if not other.cd:  # a constant leaves the slope as it is: one Fraction operation, not two
            return DimExpr(self.c0 + other.c0, self.cd)
        return DimExpr(self.c0 + other.c0, self.cd + other.cd)

    __radd__ = __add__

    def __sub__(self, other) -> "DimExpr":
        other = _coerce(other)
        if not other.cd:
            return DimExpr(self.c0 - other.c0, self.cd)
        return DimExpr(self.c0 - other.c0, self.cd - other.cd)

    def __rsub__(self, other) -> "DimExpr":
        return _coerce(other) - self

    def __mul__(self, scalar: RationalLike) -> "DimExpr":
        s = as_fraction(scalar)
        if not self.cd:  # a constant stays constant: no slope product
            return DimExpr(self.c0 * s, self.cd)
        return DimExpr(self.c0 * s, self.cd * s)

    __rmul__ = __mul__

    def __neg__(self) -> "DimExpr":
        return DimExpr(-self.c0, -self.cd)

    def nonneg_for_all_dims(self) -> bool:
        """True when c0 + cd*d >= 0 for every integer dimension d >= 1.

        Dimensions are unbounded above, so a negative slope can never be
        provably nonnegative.
        """
        return self.cd >= 0 and self.c0 + self.cd >= 0

    def __str__(self) -> str:
        return format_affine(self)


def _coerce(x) -> DimExpr:
    if isinstance(x, DimExpr):
        return x
    return DimExpr(as_fraction(x))


def format_affine(e: DimExpr) -> str:
    """Canonical ASCII rendering, e.g. '1 - d/2', '5 - 2d', '-3/2'."""
    if e.cd == 0:
        return str(e.c0)
    p, q = abs(e.cd.numerator), e.cd.denominator
    if p == 1 and q == 1:
        mag = "d"
    elif q == 1:
        mag = f"{p}d"
    elif p == 1:
        mag = f"d/{q}"
    else:
        mag = f"{p}d/{q}"
    sign = "-" if e.cd < 0 else "+"
    if e.c0 == 0:
        return mag if sign == "+" else f"-{mag}"
    return f"{e.c0} {sign} {mag}"


def parse_affine(text: str) -> DimExpr:
    """Inverse of format_affine (whitespace-insensitive)."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty affine expression")
    # split into signed terms
    terms = []
    i = 0
    start = 0
    for i in range(1, len(s)):
        if s[i] in "+-" and s[i - 1] not in "+-/":
            terms.append(s[start:i])
            start = i
    terms.append(s[start:])
    c0 = Fraction(0)
    cd = Fraction(0)
    for term in terms:
        sign = Fraction(1)
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if "d" in term:
            head, _, tail = term.partition("d")
            coeff = Fraction(head) if head else Fraction(1)
            if tail:
                if not tail.startswith("/"):
                    raise ValueError(f"bad affine term in {text!r}")
                coeff /= Fraction(tail[1:])
            cd += sign * coeff
        else:
            c0 += sign * Fraction(term)
    return DimExpr(c0, cd)


@dataclass(frozen=True)
class RegBound:
    """Open regularity bound: membership for every exponent beta < sup.

    The bound never asserts membership at beta = sup itself.
    """

    sup: DimExpr

    @staticmethod
    def of(c0: RationalLike, cd: RationalLike = 0) -> "RegBound":
        return RegBound(DimExpr(as_fraction(c0), as_fraction(cd)))

    def evaluate(self, d: RationalLike) -> Fraction:
        return self.sup.evaluate(d)

    def __str__(self) -> str:
        return format_affine(self.sup)


@dataclass(frozen=True)
class ScalingInfo:
    """Parabolic-type scaling: time order s0, all spatial orders 1.

    The scaling dimension (time counts s0-fold) is time_order + d.
    """

    time_order: Fraction
    dim: DimExpr

    def __post_init__(self):
        object.__setattr__(self, "time_order", as_fraction(self.time_order))

    @property
    def weight(self) -> DimExpr:
        return DimExpr(self.time_order) + self.dim
