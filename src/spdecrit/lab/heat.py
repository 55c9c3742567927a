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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Sequence

import numpy as np

from .fields import PeriodicField, Trajectory

BLOWUP_LIMIT = 1.0e6


class BlowupError(RuntimeError):
    """Values escaped the guard; true trajectories of this flow decay."""


def _odd_check(n: int):
    if n < 3 or n % 2 == 0:
        raise ValueError(f"the damping power must be odd and >= 3, got {n}")


def solve_damped_heat(u_in: PeriodicField, n: int, dt: float, steps: int) -> Trajectory:
    """March the damped flow forward from u_in."""
    return solve_damped_heat_batch([u_in], n, dt, steps)[0]


def solve_damped_heat_batch(u_ins: Sequence[PeriodicField], n: int, dt: float, steps: int) -> List[Trajectory]:
    """March the damped flow from several initial fields on one grid at once.

    Each member's trajectory is exactly what solve_damped_heat gives for
    it alone: the transforms run over the trailing grid axes of the
    stack, and the blow-up guard watches every member.
    """
    _odd_check(n)
    if dt <= 0 or steps < 1:
        raise ValueError("need dt > 0 and steps >= 1")
    if not u_ins or any(u.grid_shape != u_ins[0].grid_shape for u in u_ins):
        raise ValueError("need at least one field, all on one grid")
    for u in u_ins:
        peak = float(np.max(np.abs(u.values)))
        if dt * peak ** (n - 1) >= 0.5:
            raise ValueError(
                f"unstable step: dt * max|u|^(n-1) = {dt * peak ** (n - 1):.3g} >= 0.5"
            )
    # complex already, as numpy would cast it for the product every step
    decay = np.exp(-(u_ins[0].mode_magnitudes() ** 2) * dt).astype(np.complex128)
    dim = u_ins[0].dim
    rows = np.empty((steps + 1, len(u_ins)) + u_ins[0].grid_shape)
    rows[0] = [u.values for u in u_ins]
    for k in range(steps):
        values = rows[k]
        damped = values - dt * values**n
        if dim == 1:  # fftn's own 1D step, without its per-call overhead
            values = np.real(np.fft.ifft(decay * np.fft.fft(damped)))
        else:
            values = np.real(np.fft.ifftn(decay * np.fft.fftn(damped, axes=(-2, -1)), axes=(-2, -1)))
        if np.max(np.abs(values)) > BLOWUP_LIMIT:
            raise BlowupError(f"field exceeded {BLOWUP_LIMIT:g} at step {k + 1}")
        rows[k + 1] = values
    times = np.arange(steps + 1) * dt
    return [Trajectory(dt=dt, times=times, values=rows[:, i]) for i in range(len(u_ins))]


@dataclass
class SmoothTestFunction:
    """Smooth space-time test function with its needed derivatives.

    Each callable receives (t, grids) where grids is the tuple of
    coordinate arrays, and returns field values on the grid.
    """

    value: Callable
    dt: Callable
    laplacian: Callable


def _grids(field: PeriodicField):
    axes = [np.arange(n) * (2.0 * math.pi / n) for n in field.grid_shape]
    return tuple(np.meshgrid(*axes, indexing="ij")) if field.dim > 1 else (axes[0],)


def weak_residual(traj: Trajectory, n: int, psi: SmoothTestFunction) -> float:
    """Absolute defect of the time-integrated weak form against psi.

    psi must vanish at the final time of the trajectory (compact support
    in [0, T)); space integrals are exact for trigonometric data, time
    integrals use the trapezoid rule.
    """
    _odd_check(n)
    X = _grids(traj.fields[0])
    dv = traj.fields[0].volume_element()

    def space_int(a: np.ndarray) -> float:
        return float(np.sum(a) * dv)

    T = traj.times[-1]
    psi_end = psi.value(T, X)
    if np.max(np.abs(psi_end)) > 1e-12:
        raise ValueError("test function must vanish at the trajectory's final time")

    boundary = space_int(traj.fields[-1].values * psi_end)
    initial = space_int(traj.fields[0].values * psi.value(0.0, X))

    integrand = []
    for t, f in zip(traj.times, traj.fields):
        u = f.values
        integrand.append(
            -space_int(u * psi.dt(t, X))
            + space_int(u**n * psi.value(t, X))
            - space_int(u * psi.laplacian(t, X))
        )
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    time_integral = float(trapezoid(np.array(integrand), traj.times))
    return abs(boundary - initial + time_integral)


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
    pair; accepts scalars or numpy arrays.
    """
    _odd_check(n)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_top = a ** (n - 1)  # the top powers appear twice: compute them once
    b_top = b ** (n - 1)
    total = np.zeros(np.broadcast(a, b).shape)
    for l in range(n):
        a_pow = a_top if l == 0 else a ** (n - 1 - l)
        b_pow = b_top if l == n - 1 else b**l
        total = total + a_pow * b_pow
    gap = total - 0.5 * (a_top + b_top)
    return float(gap) if gap.ndim == 0 else gap


def proof_inequality_gap_exact(a: Fraction, b: Fraction, n: int) -> Fraction:
    """Exact rational version; for n = 3 it equals (a + b)^2 / 2."""
    _odd_check(n)
    a = Fraction(a)
    b = Fraction(b)
    total = sum((a ** (n - 1 - l)) * (b**l) for l in range(n))
    return total - Fraction(1, 2) * (a ** (n - 1) + b ** (n - 1))


def power_difference_residual(u1: PeriodicField, u2: PeriodicField, n: int) -> float:
    """Max norm of u1^n - u2^n minus its telescoping factorization."""
    _odd_check(n)
    if u1.grid_shape != u2.grid_shape:
        raise ValueError("fields must share a grid")
    a, b = u1.values, u2.values
    w = a - b
    series = np.zeros_like(a)
    for l in range(n):
        series += a ** (n - 1 - l) * b**l
    return float(np.max(np.abs(a**n - b**n - w * series)))


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
