"""Gaussian field sampling and the mild solution of the first tree level.

White noise is drawn directly in frequency space: independent unit-
variance Gaussians per mode, Hermitian-symmetrized so samples are real.
The linear solve evolves every mode as an exact Ornstein-Uhlenbeck
update, so the only discretization is the time grid itself.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .fields import PeriodicField, Trajectory, _check_shape, _conjugate_reverse

# Bytes of Gaussians solve_z1_mild draws at once.  Each step needs two
# floats per mode, so short grids draw many steps per call; drawing all
# steps of a long grid at once measured slower (memory traffic).
DRAW_BATCH_BYTES = 1 << 18


def _hermitian_part(re: np.ndarray, im: np.ndarray, dim: int) -> np.ndarray:
    """Conjugate-symmetric part of re + i im over the last dim axes.

    Self-conjugate modes come out real with unit variance; paired modes
    split their variance between real and imaginary parts.
    """
    z = re + 1j * im
    return 0.5 * (z + _conjugate_reverse(z, dim))


def _hermitian_gaussian(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """Complex Gaussian array with conjugate symmetry and E|c_m|^2 = 1."""
    pair = rng.standard_normal((2,) + tuple(shape))
    return _hermitian_part(pair[0], pair[1], len(shape))


def sample_spatial_white(dim: int, grid_shape: Tuple[int, ...], seed: int) -> PeriodicField:
    """Spatially white Gaussian field: flat unit spectrum, zero-mode included."""
    _check_shape(dim, tuple(grid_shape))
    rng = np.random.default_rng(seed)
    coeffs = _hermitian_gaussian(rng, tuple(grid_shape))
    return PeriodicField.from_spectral(coeffs)


def solve_z1_mild(
    dim: int,
    grid_shape: Tuple[int, ...],
    dt: float,
    steps: int,
    seed: int,
    diffusion_order: float = 2.0,
    noise_scale: float = 1.0,
) -> Trajectory:
    """Evolve the noise-forced linear equation from zero data.

    Mode m decays at rate |m|^order and receives a Gaussian increment of
    exact variance (1 - exp(-2 |m|^order dt)) / (2 |m|^order), which is
    the integrated forcing over one step; the zero mode performs a
    random walk of variance dt per step.  The trajectory keeps the
    coefficients, so no row is transformed back unless it is read.
    """
    _check_shape(dim, tuple(grid_shape))
    if dt <= 0 or steps < 1:
        raise ValueError("need dt > 0 and steps >= 1")
    rng = np.random.default_rng(seed)
    shape = tuple(grid_shape)
    probe = PeriodicField(np.zeros(shape))
    lam = probe.mode_magnitudes() ** diffusion_order
    decay = np.exp(-lam * dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        var = np.where(lam > 0, (1.0 - np.exp(-2.0 * lam * dt)) / (2.0 * lam), dt)
    std = noise_scale * np.sqrt(var)
    # complex already, as numpy would cast them for each product
    decay, std = decay.astype(np.complex128), std.astype(np.complex128)

    coeffs = np.empty((steps + 1,) + shape, dtype=np.complex128)
    coeffs[0] = 0.0
    batch = max(1, DRAW_BATCH_BYTES // (16 * math.prod(shape)))
    for first in range(0, steps, batch):
        count = min(batch, steps - first)
        # the same stream as one pair of draws per step
        pairs = rng.standard_normal((count, 2) + shape)
        eta = std * _hermitian_part(pairs[:, 0], pairs[:, 1], dim)
        for k in range(first, first + count):
            np.multiply(decay, coeffs[k], out=coeffs[k + 1])
            coeffs[k + 1] += eta[k - first]
    return Trajectory(dt=dt, times=np.arange(steps + 1) * dt, spectral=coeffs)
