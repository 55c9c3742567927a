"""Real fields on a uniform torus grid and their dyadic frequency anatomy.

Fields live on [0, 2pi)^dim with integer wavenumbers.  The spectral
convention divides the forward transform by the point count, so the mean
square of the samples equals the sum of squared coefficient moduli over
the full spectrum.  Only the half spectrum is kept (numpy's rfftn
layout): the last axis holds wavenumbers 0..N/2, and the modes left out
are the complex conjugates of the kept ones at -m.
Frequency blocks are sharp annuli: block -1 keeps |m| <= 1 and block
j >= 1 keeps 2^(j-1) < |m| <= 2^j, which partitions the modes exactly.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np


class ResolutionError(ValueError):
    """The grid cannot resolve enough dyadic blocks."""


def _check_shape(dim: int, grid_shape: Tuple[int, ...]):
    if dim not in (1, 2):
        raise ValueError(f"only dim 1 and 2 are supported, got {dim}")
    if len(grid_shape) != dim:
        raise ValueError(f"grid shape {grid_shape} does not match dim {dim}")
    for n in grid_shape:
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"grid points per axis must be a power of two >= 4, got {n}")


def mode_magnitudes(grid_shape: Tuple[int, ...]) -> np.ndarray:
    """Euclidean wavenumber magnitude per half-spectrum entry."""
    axes = [np.fft.fftfreq(n, d=1.0 / n) for n in grid_shape[:-1]]
    axes.append(np.fft.rfftfreq(grid_shape[-1], d=1.0 / grid_shape[-1]))
    grids = np.meshgrid(*axes, indexing="ij")
    return np.sqrt(sum(g * g for g in grids))


@functools.cache
def _pocketfft_ufuncs():
    """numpy's real-FFT ufuncs (forward even, forward odd, inverse), or
    None where its private module lacks them."""
    try:
        from numpy.fft import _pocketfft_umath as pfu

        return pfu.rfft_n_even, pfu.rfft_n_odd, pfu.irfft
    except (ImportError, AttributeError):
        return None


def real_fft_pair(n: int):
    """(forward, inverse) real FFTs of length n along the last axis, each
    called as f(x, out), with the bits of np.fft.rfft(x, out=out) and
    np.fft.irfft(x, n=n, out=out).

    They call the ufuncs those functions end in, with the same
    normalization factors, and skip the wrappers' per-call dispatch and
    checks, which add 40-50% to a transform of a few rows of 256
    points.  Where numpy lacks the ufuncs they are the public functions.
    """
    ufuncs = _pocketfft_ufuncs()
    if ufuncs is None:
        return (lambda x, out: np.fft.rfft(x, out=out)), (lambda x, out: np.fft.irfft(x, n=n, out=out))
    even, odd, inverse = ufuncs
    forward = even if n % 2 == 0 else odd
    scale = np.reciprocal(n, dtype=np.float64)
    return (lambda x, out: forward(x, 1, out)), (lambda x, out: inverse(x, scale, out))


def _pack_last(x: np.ndarray) -> np.ndarray:
    """N reals along the last axis as N/2 + 1 coefficients of unit second
    moment: the first and last real, the rest complex with 1/2 per part."""
    m = x.shape[-1] // 2 + 1
    c = np.empty(x.shape[:-1] + (m,), dtype=np.complex128)
    c.real = x[..., :m]
    c.imag[..., 0] = c.imag[..., -1] = 0.0
    c.imag[..., 1:-1] = x[..., m:]
    c[..., 1:-1] *= math.sqrt(0.5)
    return c


def white_half_spectrum(x: np.ndarray, dim: int) -> np.ndarray:
    """Half spectrum of real white noise from standard normals x (..., *grid).

    Every mode has E|c_m|^2 = 1 and the prod(grid) reals of a field are
    used once each: self-conjugate modes are real, every other kept mode
    is a complex pair, and in 2D the edge columns (last wavenumber 0 and
    N/2) are exactly Hermitian along the first axis.
    """
    c = _pack_last(x)
    if dim == 2:
        mid = x.shape[-2] // 2
        for j in (0, c.shape[-1] - 1):
            col = _pack_last(x[..., :, j])
            c[..., : mid + 1, j] = col
            c[..., mid + 1 :, j] = np.conj(col[..., -2:0:-1])
    return c


class PeriodicField:
    """Samples of a real field on a uniform periodic grid.

    Either view is computed from the other on first read and cached: a
    field built from samples transforms forward when its spectrum is
    asked for, one built from half-spectrum coefficients transforms back
    only when its values are.  Coefficients must be a real field's
    (self-conjugate modes real, 2D edge columns Hermitian); the inverse
    transform drops whatever part of them is not.
    """

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        _check_shape(values.ndim, values.shape)
        self._values: Optional[np.ndarray] = values
        self._spectral: Optional[np.ndarray] = None
        self.dim = values.ndim
        self.grid_shape = values.shape

    @classmethod
    def from_spectral(cls, coeffs: np.ndarray) -> "PeriodicField":
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        # the (even) grid whose half spectrum this is
        grid_shape = coeffs.shape[:-1] + (2 * coeffs.shape[-1] - 2,) if coeffs.ndim else ()
        _check_shape(coeffs.ndim, grid_shape)
        f = cls.__new__(cls)
        f._values = None
        f._spectral = coeffs
        f.dim = coeffs.ndim
        f.grid_shape = grid_shape
        return f

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            axes = tuple(range(self.dim))
            self._values = np.fft.irfftn(self._spectral, s=self.grid_shape, axes=axes) * self.npoints
        return self._values

    @property
    def spectral(self) -> np.ndarray:
        if self._spectral is None:
            self._spectral = np.fft.rfftn(self._values) / self._values.size
        return self._spectral

    @property
    def npoints(self) -> int:
        return math.prod(self.grid_shape)

    def volume_element(self) -> float:
        return (2.0 * math.pi) ** self.dim / self.npoints

    def lq_norm(self, q: float) -> float:
        dv = self.volume_element()
        if q == math.inf:
            return float(np.max(np.abs(self.values)))
        return float((np.sum(np.abs(self.values) ** q) * dv) ** (1.0 / q))


class Trajectory(NamedTuple):
    """The record of a trajectory directory: its step dt, its sample
    times and one field per time, as `lab.io` writes and reads them."""

    dt: float
    times: Sequence[float]
    fields: Iterable[PeriodicField]


# ---------------------------------------------------------------------------
# dyadic frequency blocks


def _block_index(mags: np.ndarray) -> np.ndarray:
    """Block number per mode: -1 for |m| <= 1, else ceil(log2 |m|)."""
    idx = np.full(mags.shape, -1, dtype=np.int64)
    big = mags > 1.0
    idx[big] = np.ceil(np.log2(mags[big]) - 1e-12).astype(np.int64)
    return idx


def max_block(grid_shape: Tuple[int, ...]) -> int:
    """Largest fully resolved block: its annulus must fit under Nyquist."""
    nyquist = min(grid_shape) // 2
    return int(math.floor(math.log2(nyquist)))


def lp_fields(f: PeriodicField) -> List[Tuple[int, PeriodicField]]:
    """Sharp annulus projections (j, block field); blocks sum to f.

    Blocks beyond max_block exist only to absorb corner modes of square
    grids; exponent fits must stay below max_block.
    """
    if max_block(f.grid_shape) < 1:
        raise ResolutionError(f"grid {f.grid_shape} resolves no dyadic blocks")
    idx = _block_index(mode_magnitudes(f.grid_shape))
    jtop = int(idx.max())
    out = []
    coeffs = f.spectral
    for j in range(-1, jtop + 1):
        if j == 0:
            continue  # the annulus (1/2, 1] holds no integer modes
        mask = idx == j
        block = np.where(mask, coeffs, 0.0)
        out.append((j, PeriodicField.from_spectral(block)))
    return out


def fit_window(grid_shape: Tuple[int, ...]) -> range:
    """Blocks j in [2, J - 2] that an exponent fit uses, J = max_block.

    Depends on the grid alone, so a run can check it before it samples;
    raises ResolutionError when the grid resolves too few blocks.
    """
    resolved = max_block(grid_shape)
    if resolved < 4:
        raise ResolutionError(f"grid {tuple(grid_shape)}: need at least 4 dyadic blocks to fit an exponent")
    window = range(2, resolved - 1)
    if len(window) < 2:
        raise ResolutionError(f"grid {tuple(grid_shape)}: exponent-fit window is empty at this resolution")
    return window


def estimate_holder_exponent(f: PeriodicField) -> float:
    """Least-squares slope of compensated -log2 block sup norms over
    j in [2, J - 2] (see fit_window).

    The sup of a block of ~2^j random-phase modes runs a factor
    sqrt(j ln 2) above its mean-square size; fitting the raw norms
    would shave roughly 0.15 off the exponent over this window, so
    that factor is divided out before the fit.  Only the blocks in the
    window are built and transformed back, one at a time.
    """
    js_fit = fit_window(f.grid_shape)
    idx = _block_index(mode_magnitudes(f.grid_shape))
    coeffs = f.spectral
    sups = [(j, PeriodicField.from_spectral(np.where(idx == j, coeffs, 0.0)).lq_norm(math.inf)) for j in js_fit]
    window = [(j, s) for j, s in sups if s > 0]
    if len(window) < 2:
        raise ResolutionError("exponent-fit window is empty at this resolution")
    js = np.array([j for j, _ in window], dtype=np.float64)
    ys = np.array([-math.log2(s) + 0.5 * math.log2(j * math.log(2)) for j, s in window])
    slope = np.polyfit(js, ys, 1)[0]
    return float(slope)


def synthetic_field(dim: int, grid_shape: Tuple[int, ...], exponent: float, seed: int) -> PeriodicField:
    """Random-phase field whose dyadic block norms scale like 2^(-j*exponent).

    Coefficient magnitudes |m|^-(exponent + dim/2) give that scaling for
    random phases; the zero mode is dropped.  The phases are those of a
    white-noise half spectrum, so self-conjugate modes get a random sign.
    """
    _check_shape(dim, tuple(grid_shape))
    rng = np.random.default_rng(seed)
    shape = tuple(grid_shape)
    mags = mode_magnitudes(shape)
    sigma = exponent + dim / 2.0
    with np.errstate(divide="ignore"):
        amp = np.where(mags > 0, mags, 1.0) ** (-sigma)
    amp[mags == 0] = 0.0
    noise = white_half_spectrum(rng.standard_normal(shape), dim)
    coeffs = noise * (amp / np.maximum(np.abs(noise), np.finfo(np.float64).tiny))
    return PeriodicField.from_spectral(coeffs)


def bony_decompose(f: PeriodicField, g: PeriodicField):
    """Split fg into low-high, high-low and resonant frequency parts.

    Low-high pairs blocks i <= j - 2 of f with block j of g, high-low is
    the mirror, and the resonant part keeps |i - j| <= 1.  The three
    parts add up to the pointwise product exactly (every index pair
    lands in exactly one bucket).
    """
    if f.grid_shape != g.grid_shape:
        raise ValueError("fields must share a grid")
    fb = lp_fields(f)
    gb = lp_fields(g)
    low_high = np.zeros_like(f.values)
    high_low = np.zeros_like(f.values)
    resonant = np.zeros_like(f.values)
    for i, fi in fb:
        for j, gj in gb:
            prod = fi.values * gj.values
            if i <= j - 2:
                low_high += prod
            elif j <= i - 2:
                high_low += prod
            else:
                resonant += prod
    return PeriodicField(low_high), PeriodicField(high_low), PeriodicField(resonant)
