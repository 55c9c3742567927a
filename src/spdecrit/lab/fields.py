"""Real fields on a uniform torus grid and their dyadic frequency anatomy.

Fields live on [0, 2pi)^dim with integer wavenumbers.  The spectral
convention divides the forward transform by the point count, so the mean
square of the samples equals the sum of squared coefficient moduli.
Frequency blocks are sharp annuli: block -1 keeps |m| <= 1 and block
j >= 1 keeps 2^(j-1) < |m| <= 2^j, which partitions the modes exactly.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence as SequenceABC
from typing import Callable, List, Optional, Sequence, Tuple

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


class PeriodicField:
    """Samples of a real field on a uniform periodic grid.

    Either view is computed from the other on first read and cached: a
    field built from samples transforms forward when its spectrum is
    asked for, one built from coefficients transforms back only when its
    values are.  Coefficients must be Hermitian for the values to be
    the field's; the inverse transform keeps the real part.
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
        _check_shape(coeffs.ndim, coeffs.shape)
        f = cls.__new__(cls)
        f._values = None
        f._spectral = coeffs
        f.dim = coeffs.ndim
        f.grid_shape = coeffs.shape
        return f

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = (np.fft.ifftn(self._spectral) * self._spectral.size).real
        return self._values

    @property
    def spectral(self) -> np.ndarray:
        if self._spectral is None:
            self._spectral = np.fft.fftn(self._values) / self._values.size
        return self._spectral

    @property
    def npoints(self) -> int:
        return math.prod(self.grid_shape)

    def mode_magnitudes(self) -> np.ndarray:
        """Euclidean wavenumber magnitude per spectral entry."""
        axes = [np.fft.fftfreq(n, d=1.0 / n) for n in self.grid_shape]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.sqrt(sum(g * g for g in grids))

    def volume_element(self) -> float:
        return (2.0 * math.pi) ** self.dim / self.npoints

    def lq_norm(self, q: float) -> float:
        dv = self.volume_element()
        if q == math.inf:
            return float(np.max(np.abs(self.values)))
        return float((np.sum(np.abs(self.values) ** q) * dv) ** (1.0 / q))

    def mean_square(self) -> float:
        return float(np.mean(self.values**2))

    def copy(self) -> "PeriodicField":
        return PeriodicField(self.values.copy())


class Trajectory:
    """Uniformly spaced time samples of one evolving field.

    The samples live in one (steps+1, *grid) array, either of sample
    values or, for a trajectory solved in frequency space, of spectral
    coefficients.  `fields` views its rows as PeriodicFields made when
    indexed and never kept, so a spectral row runs its inverse FFT only
    when its values are read, and the values are freed with the field.
    Build one from a list of fields, from `values=` or from `spectral=`.
    """

    def __init__(
        self,
        dt: float,
        times,
        fields: Optional[Sequence[PeriodicField]] = None,
        *,
        values: Optional[np.ndarray] = None,
        spectral: Optional[np.ndarray] = None,
    ):
        if sum(a is not None for a in (fields, values, spectral)) != 1:
            raise TypeError("give exactly one of fields, values and spectral")
        if fields is not None:
            values = np.stack([f.values for f in fields])
        self._is_spectral = spectral is not None
        if self._is_spectral:
            rows = np.asarray(spectral, dtype=np.complex128)
        else:
            rows = np.asarray(values, dtype=np.float64)
        _check_shape(rows.ndim - 1, rows.shape[1:])
        self._rows = rows
        self.dt = dt
        self.times = np.asarray(times, dtype=np.float64)
        if len(self.times) != len(rows):
            raise ValueError("times and fields disagree in length")
        if len(self.times) > 1:
            gaps = np.diff(self.times)
            if not np.allclose(gaps, self.dt, rtol=1e-9, atol=1e-12):
                raise ValueError("trajectory times are not uniformly spaced")

    @property
    def steps(self) -> int:
        return len(self._rows) - 1

    @property
    def grid_shape(self) -> Tuple[int, ...]:
        return self._rows.shape[1:]

    @property
    def fields(self) -> "_FieldRows":
        return _FieldRows(self._rows, self._is_spectral)

    def final(self) -> PeriodicField:
        return self.fields[-1]

    def values_array(self) -> np.ndarray:
        """All sample values, (steps+1, *grid); a read-only view when stored."""
        if self._is_spectral:
            return np.stack([f.values for f in self.fields])
        return _read_only(self._rows)

    def spectral_array(self) -> np.ndarray:
        """All spectral coefficients, (steps+1, *grid); a read-only view when stored."""
        if self._is_spectral:
            return _read_only(self._rows)
        return np.stack([f.spectral for f in self.fields])

    def _every(self, stride: int) -> "Trajectory":
        """Every stride-th sample, sharing this trajectory's rows."""
        rows = {"spectral" if self._is_spectral else "values": self._rows[::stride]}
        return Trajectory(self.dt * stride, self.times[::stride], **rows)


class _FieldRows(SequenceABC):
    """The rows of a trajectory as PeriodicFields, each made when indexed."""

    def __init__(self, rows: np.ndarray, spectral: bool):
        self._rows = rows
        self._spectral = spectral

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        row = self._rows[i]
        return PeriodicField.from_spectral(row) if self._spectral else PeriodicField(row)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


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
    idx = _block_index(f.mode_magnitudes())
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


def littlewood_paley_blocks(f: PeriodicField) -> List[Tuple[int, float]]:
    """(block index, sup norm of the block) for every resolved block."""
    return [(j, g.lq_norm(math.inf)) for j, g in lp_fields(f)]


def fit_window(grid_shape: Tuple[int, ...], j_lo: int = 2, j_margin: int = 2) -> range:
    """Blocks j in [j_lo, J - j_margin] that an exponent fit uses, J = max_block.

    Depends on the grid alone, so a run can check it before it samples;
    raises ResolutionError when the grid resolves too few blocks.
    """
    resolved = max_block(grid_shape)
    if resolved < 4:
        raise ResolutionError(f"grid {tuple(grid_shape)}: need at least 4 dyadic blocks to fit an exponent")
    window = range(max(j_lo, 1), resolved - j_margin + 1)
    if len(window) < 2:
        raise ResolutionError(f"grid {tuple(grid_shape)}: exponent-fit window is empty at this resolution")
    return window


def estimate_holder_exponent(f: PeriodicField, j_lo: int = 2, j_margin: int = 2) -> float:
    """Least-squares slope of compensated -log2 block sup norms over
    j in [j_lo, J - j_margin] (see fit_window).

    The sup of a block of ~2^j random-phase modes runs a factor
    sqrt(j ln 2) above its mean-square size; fitting the raw norms
    would shave roughly 0.15 off the exponent over this window, so
    that factor is divided out before the fit.  Only the blocks in the
    window are transformed back.
    """
    js_fit = fit_window(f.grid_shape, j_lo, j_margin)
    sups = [(j, g.lq_norm(math.inf)) for j, g in lp_fields(f) if j in js_fit]
    window = [(j, s) for j, s in sups if s > 0]
    if len(window) < 2:
        raise ResolutionError("exponent-fit window is empty at this resolution")
    js = np.array([j for j, _ in window], dtype=np.float64)
    ys = np.array([-math.log2(s) + 0.5 * math.log2(j * math.log(2)) for j, s in window])
    slope = np.polyfit(js, ys, 1)[0]
    return float(slope)


def holder_quotient_exponent(f: PeriodicField, max_octaves: int = 6) -> float:
    """Direct oracle: slope of log sup |f(x+h) - f(x)| against log h.

    Works on 1D fields only; lags run over dyadic multiples of the grid
    spacing.  Independent of any frequency-space machinery.
    """
    if f.dim != 1:
        raise ValueError("quotient sampling is implemented for dim 1")
    n = f.grid_shape[0]
    vals = f.values
    ks, ds = [], []
    for k in range(max_octaves):
        shift = 2**k
        if shift >= n // 4:
            break
        diff = np.max(np.abs(np.roll(vals, -shift) - vals))
        if diff > 0:
            ks.append(math.log2(shift * 2.0 * math.pi / n))
            ds.append(math.log2(diff))
    if len(ks) < 2:
        raise ResolutionError("not enough usable lags for a quotient fit")
    slope = np.polyfit(np.array(ks), np.array(ds), 1)[0]
    return float(slope)


def synthetic_field(dim: int, grid_shape: Tuple[int, ...], exponent: float, seed: int) -> PeriodicField:
    """Random-phase field whose dyadic block norms scale like 2^(-j*exponent).

    Coefficient magnitudes |m|^-(exponent + dim/2) give that scaling for
    random phases; the zero mode is dropped.
    """
    _check_shape(dim, tuple(grid_shape))
    rng = np.random.default_rng(seed)
    shape = tuple(grid_shape)
    probe = PeriodicField(np.zeros(shape))
    mags = probe.mode_magnitudes()
    sigma = exponent + dim / 2.0
    with np.errstate(divide="ignore"):
        amp = np.where(mags > 0, mags, 1.0) ** (-sigma)
    amp[mags == 0] = 0.0
    phases = rng.uniform(0.0, 2.0 * math.pi, size=shape)
    raw = amp * np.exp(1j * phases)
    coeffs = _hermitize(raw)
    return PeriodicField.from_spectral(coeffs)


def _conjugate_reverse(a: np.ndarray, dim: Optional[int] = None) -> np.ndarray:
    """a[..., -m] (indices mod N per axis over the last dim axes, all by default), conjugated.

    Along each axis index 0 stays and 1..N-1 reverse, so the result is
    2^dim slice copies.
    """
    dim = a.ndim if dim is None else dim
    out = np.empty_like(a)
    for parts in itertools.product((False, True), repeat=dim):
        dst = tuple(slice(1, None) if rest else slice(0, 1) for rest in parts)
        src = tuple(slice(None, 0, -1) if rest else slice(0, 1) for rest in parts)
        out[(Ellipsis,) + dst] = a[(Ellipsis,) + src]
    return np.conj(out, out=out)


def _hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + _conjugate_reverse(a))


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
