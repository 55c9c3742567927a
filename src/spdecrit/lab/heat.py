"""Damped heat flow with an odd-power nonlinearity, and the algebra
behind its uniqueness argument.

The integrator is first order: the dissipative part is applied exactly
per mode through an integrating factor, the damping term explicitly in
value space.  Under the step-size guard dt * max|u|^(n-1) < 1/2 the
discrete energy is strictly decreasing, mirroring the continuous
identity d/dt (1/2)||u||^2 = -||grad u||^2 - ||u||_{n+1}^{n+1}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .fields import mode_magnitudes, real_fft_pair

BLOWUP_LIMIT = 1.0e6


class BlowupError(RuntimeError):
    """Values escaped the guard; true trajectories of this flow decay."""


def _odd_check(n: int):
    if n < 3 or n % 2 == 0:
        raise ValueError(f"the damping power must be odd and >= 3, got {n}")


def _power(x, k: int):
    """x**k for an integer k >= 1 by repeated multiplication, which
    numpy runs an order of magnitude faster than float **."""
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def _checked(values: np.ndarray, n: int, dts: Sequence[float], steps: Sequence[int]):
    """The checks of a march of values, a (members, points) stack as
    _march takes it, one step size and step count per member, which run
    in the members' order."""
    _odd_check(n)
    if not all(0 < d < math.inf for d in dts) or not all(isinstance(s, int) and s >= 1 for s in steps):
        raise ValueError("need 0 < dt < inf and whole steps >= 1")
    for u, d in zip(values, dts):
        peak = float(np.max(np.abs(u)))
        try:  # the step forms u^n, which must fit a double (NaN data pass)
            peak**n
        except OverflowError:
            raise ValueError(f"max|u|^n overflows a double: max|u| = {peak:.3g}, n = {n}") from None
        if d * peak ** (n - 1) >= 0.5:
            raise ValueError(f"unstable step: dt * max|u|^(n-1) = {d * peak ** (n - 1):.3g} >= 0.5")


# steps per block of the march: the guard runs once per block, and a
# block of a few members on a 1D grid stays within a core's cache
_BLOCK = 128


def _march(values: np.ndarray, n: int, dts: Sequence[float], steps: Sequence[int]):
    """March a stack of 1D fields in place; yield (first, rows) per block.

    values is (members, points), its members ordered by nonincreasing
    steps, and dts and steps are the members' checked step sizes and
    counts.  rows[j, i] is member i at step first + j while that step
    is at most steps[i]; later rows of a finished member hold nothing.
    The first block starts at step 0 with the data.  rows is a view of
    one buffer that the next block overwrites, so read it before asking
    for the next.  The first step of a block at which a marching
    member's values exceed BLOWUP_LIMIT raises BlowupError naming it,
    before the block is yielded.  A block may step on past that step, so
    overflow and invalid values do not warn while a block is computed.
    """
    count, points = values.shape
    dt_rows = np.array(dts).reshape(count, 1)
    # complex already, as numpy would cast it for the product every step
    decay = np.exp(-(mode_magnitudes((points,)) ** 2) * dt_rows).astype(np.complex128)
    total = steps[0] + 1  # rows, the data's included
    block = np.empty((min(_BLOCK, total),) + values.shape)
    work = np.empty_like(values)
    spectrum = np.empty_like(decay)
    last = np.array(steps)
    # rfft's and irfft's bits without numpy's per-call wrappers: at a few
    # rows of a 1D grid a step costs what its calls into numpy cost
    forward, inverse = real_fft_pair(points)
    # dt as whole rows: the same products, without a broadcast, which
    # doubles the cost of the call
    dt_values = np.broadcast_to(dt_rows, values.shape).copy()
    block[0] = values
    # the views of the members still marching, bound again only when one
    # finishes; at first every member marches
    marching = count
    w, s, dt_m, decay_m, row = work, spectrum, dt_values, decay, list(block)
    for first in range(0, total, len(block)):
        size = min(len(block), total - first)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1 if first == 0 else 0, size):
                k = first + j - 1  # the step from k to k + 1
                if steps[marching - 1] <= k:
                    marching = sum(last_step > k for last_step in steps)
                    w, s, dt_m, decay_m = work[:marching], spectrum[:marching], dt_values[:marching], decay[:marching]
                    row = [r[:marching] for r in block]
                # at j = 0 the step before is the last row of the block
                # before, which was full
                v = row[j - 1]
                np.multiply(v, v, w)
                for _ in range(n - 2):
                    np.multiply(w, v, w)
                np.multiply(dt_m, w, w)
                np.subtract(v, w, w)
                forward(w, s)
                np.multiply(decay_m, s, s)
                inverse(s, row[j])
        rows = block[:size]
        # one guard per block: max|u| of each member at each step, over
        # the members marching into that step (a NaN hides the step, as
        # numpy's max of the whole stack would)
        peaks = np.maximum(np.max(rows, axis=2), -np.min(rows, axis=2))
        step = np.arange(first, first + size)[:, None]
        live = (step >= 1) & (step <= last)
        over = np.max(np.where(live, peaks, 0.0), axis=1) > BLOWUP_LIMIT
        if over.any():
            raise BlowupError(f"field exceeded {BLOWUP_LIMIT:g} at step {first + int(np.argmax(over))}")
        yield first, rows


def steklov_average(values: np.ndarray, r: int) -> np.ndarray:
    """Backward sliding mean of values, (rows, *grid), over a window of r
    whole rows.

    The series extends by zero before its first row, so the average ramps
    up linearly over the first r rows for constant data.  Discretely this
    is a left rectangle rule: the mean of the r preceding samples.
    """
    m = len(values)
    padded = np.concatenate([np.zeros((r,) + values.shape[1:]), values], axis=0)
    csum = np.concatenate([np.zeros((1,) + values.shape[1:]), np.cumsum(padded, axis=0)], axis=0)
    # left rectangle rule over the window: mean of samples (i-r) .. (i-1)
    return (csum[r : r + m] - csum[:m]) / r


def proof_inequality_gap(a, b, n: int):
    """Sum over l of a^(n-1-l) b^l, minus half of (a^(n-1) + b^(n-1)).

    The uniqueness argument needs this to be nonnegative for every real
    pair; accepts scalars or numpy arrays.  The sum runs as a Horner
    recurrence in a and every power by repeated multiplication.
    """
    _odd_check(n)
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    a_top, b_top = a.copy(), b.copy()
    total = a + b  # the sum at n - 1 = 1
    for _ in range(n - 2):  # from the sum at k to the sum at k + 1: a * sum + b^(k+1)
        a_top *= a
        b_top *= b
        total *= a
        total += b_top
    gap = total - 0.5 * (a_top + b_top)
    return float(gap) if gap.ndim == 0 else gap


def proof_inequality_gap_exact(a: Fraction, b: Fraction, n: int) -> Fraction:
    """Exact rational version; for n = 3 it equals (a + b)^2 / 2."""
    _odd_check(n)
    a = Fraction(a)
    b = Fraction(b)
    total = sum((a ** (n - 1 - l)) * (b**l) for l in range(n))
    return total - Fraction(1, 2) * (a ** (n - 1) + b ** (n - 1))


def _l1_rows(diff: np.ndarray, dv: float) -> np.ndarray:
    """Integral norm of each row of diff, (rows, *grid), which it
    overwrites with its absolute value; the one summation order of every
    L1 curve."""
    np.abs(diff, out=diff)
    return np.sum(diff, axis=tuple(range(1, diff.ndim))) * dv
