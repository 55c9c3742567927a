"""Gaussian field sampling and the mild solution of the first tree level.

White noise is drawn directly on the half spectrum: one standard normal
per grid point, packed so that self-conjugate modes are real with unit
variance and every other mode is a complex pair (see
fields.white_half_spectrum).  The linear solve evolves every mode as an
exact Ornstein-Uhlenbeck update, so the only discretization is the time
grid itself.  Exact updates compose, so a caller that reads only some
rows can solve with one step from each read row to the next.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from .fields import PeriodicField, Trajectory, _check_shape, mode_magnitudes, white_half_spectrum

# Bytes of Gaussians one solve draws at once, over all its members.  Each
# step needs one float per grid point, so short grids draw many steps per
# call; drawing all steps of a long grid at once measured slower (memory
# traffic).
DRAW_BATCH_BYTES = 1 << 18


def sample_spatial_white(dim: int, grid_shape: Tuple[int, ...], seed: int) -> PeriodicField:
    """Spatially white Gaussian field: flat unit spectrum, zero-mode included."""
    _check_shape(dim, tuple(grid_shape))
    rng = np.random.default_rng(seed)
    return PeriodicField.from_spectral(white_half_spectrum(rng.standard_normal(tuple(grid_shape)), dim))


def _ou_factors(dim, grid_shape, dt, steps):
    """Per-mode decay and increment size of one step, as complex arrays."""
    _check_shape(dim, tuple(grid_shape))
    if not 0 < dt < math.inf or steps < 1:
        raise ValueError(f"need 0 < dt < inf and steps >= 1, got dt={dt!r} and steps={steps!r}")
    lam = mode_magnitudes(tuple(grid_shape)) ** 2.0
    # at a step so long that lam * dt overflows, exp(-inf) gives the exact
    # limits 0 and 1 / (2 lam)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        decay = np.exp(-lam * dt)
        var = np.where(lam > 0, (1.0 - np.exp(-2.0 * lam * dt)) / (2.0 * lam), dt)
    std = np.sqrt(var)
    # complex already, as numpy would cast them for each product
    return decay.astype(np.complex128), std.astype(np.complex128)


def solve_z1_mild(dim: int, grid_shape: Tuple[int, ...], dt: float, steps: int, seed: int) -> Trajectory:
    """Evolve dz = Laplacian z dt + dW, W space-time white, from zero data.

    Mode m decays at rate |m|^2 and receives a Gaussian increment of
    exact variance (1 - exp(-2 |m|^2 dt)) / (2 |m|^2), which is the
    integrated forcing over one step; the zero mode performs a random
    walk of variance dt per step.  The trajectory keeps the
    coefficients, so no row is transformed back unless it is read.
    """
    return solve_z1_mild_batch(dim, grid_shape, dt, steps, [seed])[0]


def solve_z1_mild_batch(
    dim: int, grid_shape: Tuple[int, ...], dt: float, steps: int, seeds: Sequence[int]
) -> List[Trajectory]:
    """One solve_z1_mild per seed, marched as one stack.

    Each member keeps its own generator and draw order, so member i is
    solve_z1_mild(..., seeds[i], ...) bit for bit: one draw of count
    fields is the same stream as count draws of one.  Every step of
    every member is written into one preallocated array.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    grid_shape = tuple(grid_shape)
    decay, std = _ou_factors(dim, grid_shape, dt, steps)
    batch = max(1, DRAW_BATCH_BYTES // (8 * math.prod(grid_shape) * len(seeds)))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    coeffs = np.zeros((len(rngs), steps + 1) + decay.shape, dtype=np.complex128)
    for first in range(0, steps, batch):
        draws = (min(batch, steps - first),) + grid_shape
        x = np.stack([rng.standard_normal(draws) for rng in rngs], axis=1)
        for k, eta in enumerate(std * white_half_spectrum(x, len(grid_shape)), start=first):
            np.multiply(decay, coeffs[:, k], out=coeffs[:, k + 1])
            coeffs[:, k + 1] += eta
    return [Trajectory(dt=dt, times=np.arange(steps + 1) * dt, spectral=c) for c in coeffs]
