"""The classical smooth nonzero caloric function with zero initial trace.

u(t, x) sums g^(k)(t) x^(2k) / (2k)! over k, where g(t) = exp(-1/t^alpha)
for t > 0 and 0 otherwise.  For integer alpha >= 2 every derivative of g
is P_k(1/t) g(t) with P_k an integer polynomial obeying

    P_0 = 1,   P_{k+1}(s) = -s^2 P_k'(s) + alpha s^(alpha+1) P_k(s).

Truncating the series after K terms leaves a heat-equation residual that
telescopes to the single term g^(K+1)(t) x^(2K) / (2K)!.  That residual
is astronomically small (around 4e-36 at K = 30 on the default region), so
the independent finite-difference check runs in arbitrary precision, with
a step and a precision that shrink and grow with it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import mpmath as mp

OVERFLOW_LIMIT = 1.0e300
# decimal digits at which analytic_heat_residual_mp evaluates the residual
ANALYTIC_DPS = 120


class EvaluationOverflow(OverflowError):
    pass


Poly = Tuple[int, ...]  # coefficient of s^i at index i


def _next_poly(p: Poly, alpha: int) -> Poly:
    """-s^2 P'(s) + alpha s^(alpha+1) P(s)."""
    out = [0] * (len(p) + alpha + 1)
    for i, c in enumerate(p):
        out[i + 1] -= i * c
        out[i + alpha + 1] += alpha * c
    return tuple(out)


@dataclass
class TychonovSeries:
    """Derivative polynomials of g for one integer alpha >= 2."""

    alpha: int
    poly_table: List[Poly]
    # (k, mp precision) -> mpf coefficients of P_k, highest power first
    _mp_coeffs: Dict[Tuple[int, int], Tuple] = field(default_factory=dict, repr=False, compare=False)
    # (t, mp precision) -> (1/t, g(t), {k: g^(k)(t)}) in mp
    _mp_points: Dict[Tuple, Tuple] = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(cls, alpha: int, depth: int) -> "TychonovSeries":
        if not isinstance(alpha, int) or alpha < 2:
            raise ValueError(f"alpha must be an integer >= 2, got {alpha}")
        series = cls(alpha=alpha, poly_table=[(1,)])
        series.ensure_depth(depth)
        return series

    def ensure_depth(self, depth: int):
        while len(self.poly_table) <= depth:
            self.poly_table.append(_next_poly(self.poly_table[-1], self.alpha))

    def poly(self, k: int) -> Poly:
        self.ensure_depth(k)
        return self.poly_table[k]

    def mp_coeffs(self, k: int) -> Tuple:
        """P_k's coefficients as mpf at the ambient precision, highest power first."""
        key = (k, mp.mp.prec)
        coeffs = self._mp_coeffs.get(key)
        if coeffs is None:
            coeffs = tuple(mp.mpf(c) for c in reversed(self.poly(k)))
            self._mp_coeffs[key] = coeffs
        return coeffs

    def g_derivative(self, k: int, t: float) -> float:
        """d^k/dt^k of g at t (0 for t <= 0)."""
        if t <= 0:
            return 0.0
        s = 1.0 / t
        return _horner_float(self.poly(k), s) * math.exp(-(s**self.alpha))

    def g_derivative_mp(self, k: int, t) -> mp.mpf:
        return _g_values_mp(self, t, k, start=k)[0] if t > 0 else mp.mpf(0)


def _g_values_mp(series: TychonovSeries, t, K: int, start: int = 0) -> List:
    """g^(k)(t) for k = start..K in mp; empty for t <= 0, where g vanishes.

    Each value is computed once per (t, precision) and kept on the series:
    the residual checks ask for the same times at many x.
    """
    if t <= 0:
        return []
    t = mp.mpf(t)
    key = (t, mp.mp.prec)
    point = series._mp_points.get(key)
    if point is None:
        s = mp.mpf(1) / t
        point = series._mp_points[key] = (s, mp.e ** (-(s**series.alpha)), {})
    s, damping, values = point
    for k in range(start, K + 1):
        if k not in values:
            values[k] = _horner_mp(series.mp_coeffs(k), s) * damping
    return [values[k] for k in range(start, K + 1)]


def _horner_float(p: Poly, s: float) -> float:
    acc = 0.0
    for c in reversed(p):
        acc = acc * s + float(c)
    return acc


def _horner_mp(coeffs: Sequence, s) -> mp.mpf:
    acc = mp.mpf(0)
    for c in coeffs:
        # adding an exact zero would only re-round acc * s to itself
        acc = acc * s + c if c else acc * s
    return acc


def _partial_sum_mp(g_values: Sequence, x) -> mp.mpf:
    """Sum of g_values[k] x^(2k) / (2k)! over k."""
    total = mp.mpf(0)
    x = mp.mpf(x)
    for k, g_k in enumerate(g_values):
        total += g_k * x ** (2 * k) / mp.factorial(2 * k)
    return total


def tychonov_eval(series: TychonovSeries, t: float, x: float, K: int) -> float:
    """Partial sum u_K(t, x) with compensated summation."""
    if K < 0:
        raise ValueError("K must be >= 0")
    if t <= 0:
        return 0.0
    series.ensure_depth(K + 1)
    total = 0.0
    carry = 0.0
    xx = float(x) * float(x)
    x_pow = 1.0
    fact = 1.0
    for k in range(K + 1):
        if k > 0:
            x_pow *= xx
            fact *= (2 * k - 1) * (2 * k)
        term = series.g_derivative(k, t) * x_pow / fact
        if not math.isfinite(term) or abs(term) > OVERFLOW_LIMIT:
            raise EvaluationOverflow(f"series term {k} exceeded {OVERFLOW_LIMIT:g}")
        # Kahan step
        y = term - carry
        s = total + y
        carry = (s - total) - y
        total = s
    return total


def tychonov_eval_mp(series: TychonovSeries, t, x, K: int) -> mp.mpf:
    """Arbitrary-precision partial sum (precision from the ambient mp context)."""
    if t <= 0:
        return mp.mpf(0)
    series.ensure_depth(K + 1)
    return _partial_sum_mp(_g_values_mp(series, t, K), x)


def tychonov_residual(series: TychonovSeries, K: int, t_values: Sequence[float], x_values: Sequence[float]) -> float:
    """Max |d_t u_K - d_xx u_K| over the grid, by the telescoping formula.

    Raises EvaluationOverflow when a term is not a finite double.
    """
    if min(t_values) <= 0:
        raise ValueError("the region must stay away from t = 0")
    series.ensure_depth(K + 1)
    fact = math.factorial(2 * K)
    exact = fact > sys.float_info.max  # (2K)! for K >= 86 is no double: divide exactly, round once
    worst = 0.0
    for t in t_values:
        top = abs(series.g_derivative(K + 1, t))
        for x in x_values:
            r = top * abs(float(x)) ** (2 * K)
            if not math.isfinite(r):
                raise EvaluationOverflow(f"residual term at K={K} is not a finite double")
            worst = max(worst, float(Fraction(r) / fact) if exact else r / fact)
    return worst


def fd_step_and_precision(scale) -> Tuple[str, int]:
    """Step and decimal precision at which fd_heat_residual resolves a
    residual of size `scale`.

    The centered stencils miss the derivatives by about delta^2 times
    derivatives of u_K of order one (~7e-50 at delta = 1e-25 on the
    default region), and their roundoff is about 10^-dps / delta^2.  Both
    are put ~12 digits below `scale`; the step is at most 1e-25 and the
    precision at least 120 digits, the settings for a residual above
    ~1e-38 (K <= 31 on the default region).
    """
    if not scale:
        return "1e-25", 120
    digits = float(-mp.log10(abs(scale)))
    step = max(25, math.ceil((digits + 12) / 2))
    return f"1e-{step}", max(120, 2 * step + math.ceil(digits) + 20)


def fd_heat_residual(series: TychonovSeries, K: int, t, x, delta: str = "1e-25", dps: int = 120) -> mp.mpf:
    """Centered-difference heat residual of u_K at one point.

    Runs in arbitrary precision because the true residual sits far below
    double roundoff; never touches the telescoping formula.
    """
    with mp.workdps(dps):
        d = mp.mpf(delta)
        t = mp.mpf(t)
        x = mp.mpf(x)
        u = lambda tt, xx: tychonov_eval_mp(series, tt, xx, K)
        du_dt = (u(t + d, x) - u(t - d, x)) / (2 * d)
        at_t = _g_values_mp(series, t, K)  # the three x-stencil points share t
        u_t = lambda xx: _partial_sum_mp(at_t, xx)
        d2u_dx2 = (u_t(x + d) - 2 * u_t(x) + u_t(x - d)) / (d * d)
        return du_dt - d2u_dx2


def analytic_heat_residual_mp(series: TychonovSeries, K: int, t, x) -> mp.mpf:
    """The telescoping residual g^(K+1)(t) x^(2K) / (2K)! at ANALYTIC_DPS digits."""
    with mp.workdps(ANALYTIC_DPS):
        t = mp.mpf(t)
        x = mp.mpf(x)
        return series.g_derivative_mp(K + 1, t) * x ** (2 * K) / mp.factorial(2 * K)
