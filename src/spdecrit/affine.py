"""Exact affine expressions in the spatial dimension and open regularity bounds.

Every quantity in the symbolic half of the package is a rational affine
function ``c0 + cd*d`` of the dimension ``d``.  Concrete dimensions fold
into the constant part, so "symbolic" and "concrete" runs share one
arithmetic.  No floating point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Tuple, Union

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


# DimExpr refuses attribute assignment, so its constructors set the slots through object's
_set = object.__setattr__


class DimExpr:
    """Affine value c0 + cd*d, immutable; `const` takes any rational.

    It is kept as integers, (p0 + pd*d)/q with q > 0 and no factor common
    to all three, so equal values have equal fields and the arithmetic
    makes no Fraction; `.c0` and `.cd` read the coefficients back as
    Fractions.  The constructor takes ints or Fractions.
    """

    __slots__ = ("p0", "pd", "q")

    def __init__(self, c0, cd=0):
        # both are in lowest terms, so over the lcm of their denominators
        # the three integers share no factor
        n0, q0, nd, qd = c0.numerator, c0.denominator, cd.numerator, cd.denominator
        q = q0 if q0 == qd else q0 * qd // gcd(q0, qd)
        _set(self, "p0", n0 * (q // q0))
        _set(self, "pd", nd * (q // qd))
        _set(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def c0(self) -> Fraction:
        return Fraction(self.p0, self.q)

    @property
    def cd(self) -> Fraction:
        return Fraction(self.pd, self.q)

    @staticmethod
    def const(x: RationalLike) -> "DimExpr":
        return DimExpr(as_fraction(x))

    @staticmethod
    def dim() -> "DimExpr":
        """The bare symbol d."""
        return from_ints(0, 1, 1)

    def evaluate(self, d: RationalLike) -> Fraction:
        d = as_fraction(d)
        return Fraction(self.p0 * d.denominator + self.pd * d.numerator, self.q * d.denominator)

    def __add__(self, other) -> "DimExpr":
        if other.__class__ is not DimExpr:
            other = _coerce(other)
        q, oq = self.q, other.q
        if q == oq:
            return from_ints(self.p0 + other.p0, self.pd + other.pd, q)
        return from_ints(self.p0 * oq + other.p0 * q, self.pd * oq + other.pd * q, q * oq)

    __radd__ = __add__

    def __sub__(self, other) -> "DimExpr":
        if other.__class__ is not DimExpr:
            other = _coerce(other)
        q, oq = self.q, other.q
        if q == oq:
            return from_ints(self.p0 - other.p0, self.pd - other.pd, q)
        return from_ints(self.p0 * oq - other.p0 * q, self.pd * oq - other.pd * q, q * oq)

    def __rsub__(self, other) -> "DimExpr":
        return _coerce(other) - self

    def __mul__(self, scalar: RationalLike) -> "DimExpr":
        s = as_fraction(scalar)
        n = s.numerator
        return from_ints(self.p0 * n, self.pd * n, self.q * s.denominator)

    __rmul__ = __mul__

    def __neg__(self) -> "DimExpr":
        return from_ints(-self.p0, -self.pd, self.q)

    def coefficient_strs(self) -> Tuple[str, str]:
        """str(self.c0) and str(self.cd), from the integers."""
        return _ratio_str(self.p0, self.q), _ratio_str(self.pd, self.q)

    def __eq__(self, other):
        if other.__class__ is not DimExpr:
            return NotImplemented
        return self.p0 == other.p0 and self.pd == other.pd and self.q == other.q

    def __hash__(self):
        return hash((self.c0, self.cd))

    def __repr__(self) -> str:
        return f"DimExpr(c0={self.c0!r}, cd={self.cd!r})"

    def __str__(self) -> str:
        return format_affine(self)


_alloc = object.__new__


def from_ints(p0: int, pd: int, q: int) -> DimExpr:
    """The DimExpr (p0 + pd*d)/q, for q > 0, in lowest joint terms."""
    g = gcd(p0, pd, q)
    e = _alloc(DimExpr)
    _set(e, "p0", p0 // g)
    _set(e, "pd", pd // g)
    _set(e, "q", q // g)
    return e


def _coerce(x) -> DimExpr:
    if isinstance(x, DimExpr):
        return x
    return DimExpr(as_fraction(x))


def _ratio_str(n: int, q: int) -> str:
    """str(Fraction(n, q)) for q > 0."""
    g = gcd(n, q)
    return str(n // g) if g == q else f"{n // g}/{q // g}"


def format_affine(e: DimExpr) -> str:
    """Canonical ASCII rendering, e.g. '1 - d/2', '5 - 2d', '-3/2'."""
    p0, pd, q = e.p0, e.pd, e.q
    if not pd:
        return _ratio_str(p0, q)
    g = gcd(pd, q)
    p, qd = abs(pd) // g, q // g
    if qd == 1:
        mag = "d" if p == 1 else f"{p}d"
    else:
        mag = f"d/{qd}" if p == 1 else f"{p}d/{qd}"
    if not p0:
        return mag if pd > 0 else f"-{mag}"
    return f"{_ratio_str(p0, q)} {'-' if pd < 0 else '+'} {mag}"


class RegBound(NamedTuple):
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


class ScalingInfo(NamedTuple):
    """Parabolic-type scaling: time order s0, all spatial orders 1.

    The scaling dimension (time counts s0-fold) is time_order + d.
    """

    time_order: Fraction
    dim: DimExpr

    @property
    def weight(self) -> DimExpr:
        return DimExpr.const(self.time_order) + self.dim
