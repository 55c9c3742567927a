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
    """The checks of a march of values, a (members, points) stack, one
    step size and step count per member."""
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


# rows per block of the march: the guard runs once per block, and a
# block of a few members on a 1D grid stays within a core's cache
_BLOCK = 128


def _march(values: np.ndarray, n: int, dts: Sequence[float], start: int, stop: int):
    """March a stack of 1D fields in lockstep, in place, from row start
    to row stop; yield the rows block by block.

    values is (members, points) and dts the members' checked step sizes.
    Each row steps every member once, then member 0 alone once more, so
    row k holds member 0 at step 2k and the others at step k.  A block
    is a view of at most _BLOCK rows of one buffer that the next block
    overwrites, so read it before asking for the next; values holds the
    last row yielded.  The first row of a block with a value that is not
    finite or exceeds BLOWUP_LIMIT raises BlowupError naming it, before
    the block is yielded; a NaN or infinity at an odd step of member 0
    reaches the next row through the transforms.  A block may step on
    past that row, so overflow and invalid values do not warn while a
    block is computed.
    """
    count, points = values.shape
    dt_rows = np.array(dts).reshape(count, 1)
    # complex already, as numpy would cast it for the product every step
    decay = np.exp(-(mode_magnitudes((points,)) ** 2) * dt_rows).astype(np.complex128)
    block = np.empty((min(_BLOCK, stop - start),) + values.shape)
    work = np.empty_like(values)
    spectrum = np.empty_like(decay)
    # rfft's and irfft's bits without numpy's per-call wrappers: at a few
    # rows of a 1D grid a step costs what its calls into numpy cost
    forward, inverse = real_fft_pair(points)
    # dt as whole rows: the same products, without a broadcast, which
    # doubles the cost of the call
    dt_values = np.broadcast_to(dt_rows, values.shape).copy()
    # the buffers of a step of the whole stack, and of member 0 alone
    stacked = work, spectrum, dt_values, decay
    single = work[:1], spectrum[:1], dt_values[:1], decay[:1]

    def step(v, out, w, s, dt, e):
        np.multiply(v, v, w)
        for _ in range(n - 2):
            np.multiply(w, v, w)
        np.multiply(dt, w, w)
        np.subtract(v, w, w)
        forward(w, s)
        np.multiply(e, s, s)
        inverse(s, out)

    for first in range(start + 1, stop + 1, _BLOCK):
        rows = block[: min(_BLOCK, stop + 1 - first)]
        with np.errstate(over="ignore", invalid="ignore"):
            v = values
            for row, head in zip(rows, rows[:, :1]):
                step(v, row, *stacked)
                step(head, head, *single)
                v = row
        # one guard per block: max|u| over the members at each row
        peaks = np.maximum(np.max(rows, axis=(1, 2)), -np.min(rows, axis=(1, 2)))
        over = ~(peaks <= BLOWUP_LIMIT)  # NaN compares false
        if over.any():
            raise BlowupError(f"field exceeded {BLOWUP_LIMIT:g} at step {first + int(np.argmax(over))}")
        values[...] = rows[-1]
        yield rows


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
