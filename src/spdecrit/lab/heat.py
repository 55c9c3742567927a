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
from typing import List, Sequence

import numpy as np

from .fields import PeriodicField, Trajectory, mode_magnitudes

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


def solve_damped_heat(u_in: PeriodicField, n: int, dt: float, steps: int) -> Trajectory:
    """March the damped flow forward from u_in."""
    return solve_damped_heat_batch([u_in], n, dt, steps)[0]


def solve_damped_heat_batch(u_ins: Sequence[PeriodicField], n: int, dt, steps) -> List[Trajectory]:
    """March the damped flow from several initial fields on one grid at once.

    dt and steps are one value for all members or one per member.  Each
    member's trajectory is exactly what solve_damped_heat gives for it
    alone: the step is elementwise per member, the transforms run over
    the trailing grid axes of the stack, members drop out of the stack
    once their steps are done, and the blow-up guard watches every
    member still marching.
    """
    _odd_check(n)
    if not u_ins or any(u.grid_shape != u_ins[0].grid_shape for u in u_ins):
        raise ValueError("need at least one field, all on one grid")
    count = len(u_ins)
    dts = [float(d) for d in np.broadcast_to(dt, (count,))]
    steps = np.broadcast_to(steps, (count,)).tolist()
    if not all(0 < d < math.inf for d in dts) or not all(isinstance(s, int) and s >= 1 for s in steps):
        raise ValueError("need 0 < dt < inf and whole steps >= 1")
    for u, d in zip(u_ins, dts):
        peak = float(np.max(np.abs(u.values)))
        if d * peak ** (n - 1) >= 0.5:
            raise ValueError(f"unstable step: dt * max|u|^(n-1) = {d * peak ** (n - 1):.3g} >= 0.5")
    # longest run first, so the members still marching are a leading slice
    order = sorted(range(count), key=lambda i: -steps[i])
    shape = u_ins[0].grid_shape
    axes = tuple(range(-len(shape), 0))
    lead = (count,) + (1,) * len(shape)
    dt_rows = np.array([dts[i] for i in order]).reshape(lead)
    # complex already, as numpy would cast it for the product every step
    decay = np.exp(-(mode_magnitudes(shape) ** 2) * dt_rows).astype(np.complex128)
    rows = [np.empty((steps[i] + 1,) + shape) for i in order]
    values = np.stack([u_ins[i].values for i in order])
    for out, v in zip(rows, values):
        out[0] = v
    marching = count
    for k in range(steps[order[0]]):
        while steps[order[marching - 1]] <= k:
            marching -= 1
        values = values[:marching]
        damped = values - dt_rows[:marching] * _power(values, n)
        if len(shape) == 1:  # rfftn's own 1D step, without its per-call overhead
            values = np.fft.irfft(decay[:marching] * np.fft.rfft(damped), n=shape[0])
        else:
            values = np.fft.irfftn(decay[:marching] * np.fft.rfftn(damped, axes=axes), s=shape, axes=axes)
        if np.abs(values).max() > BLOWUP_LIMIT:
            raise BlowupError(f"field exceeded {BLOWUP_LIMIT:g} at step {k + 1}")
        for out, v in zip(rows, values):
            out[k + 1] = v
    trajs = [None] * count
    for i, out in zip(order, rows):
        trajs[i] = Trajectory(dt=dts[i], times=np.arange(steps[i] + 1) * dts[i], values=out)
    return trajs


def steklov_average(series: Trajectory, h: float) -> Trajectory:
    """Backward sliding mean over a window of length h (a step multiple).

    The series extends by zero before time zero, so the average ramps up
    linearly over [0, h) for constant data.  Discretely this is a left
    rectangle rule: the mean of the r preceding samples.
    """
    r = h / series.dt
    r_int = round(r)
    if r_int < 1 or abs(r - r_int) > 1e-9:
        raise ValueError(f"window {h} is not a positive multiple of dt={series.dt}")
    r = r_int
    vals = series.values_array()
    m = len(vals)
    padded = np.concatenate([np.zeros((r,) + vals.shape[1:]), vals], axis=0)
    csum = np.concatenate([np.zeros((1,) + vals.shape[1:]), np.cumsum(padded, axis=0)], axis=0)
    # left rectangle rule over the window: mean of samples (i-r) .. (i-1)
    avg = (csum[r : r + m] - csum[:m]) / r
    return Trajectory(dt=series.dt, times=series.times.copy(), values=avg)


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


def l1_contraction_curve(traj1: Trajectory, traj2: Trajectory) -> np.ndarray:
    """Integral norm of the difference at each shared time."""
    if traj1.grid_shape != traj2.grid_shape:
        raise ValueError("trajectories live on different grids")
    if len(traj1.times) != len(traj2.times) or not np.allclose(traj1.times, traj2.times):
        raise ValueError("trajectories must share their time grid")
    dv = traj1.final().volume_element()
    diff = traj1.values_array() - traj2.values_array()
    np.abs(diff, out=diff)
    return np.sum(diff, axis=tuple(range(1, diff.ndim))) * dv


def subsample(traj: Trajectory, stride: int) -> Trajectory:
    """Every stride-th sample, keeping the endpoints aligned."""
    if stride < 1 or traj.steps % stride != 0:
        raise ValueError(f"stride {stride} does not divide {traj.steps} steps")
    return traj._every(stride)
