"""Field anatomy: spectra, dyadic blocks, exponent fits, paraproducts."""

import math

import numpy as np
import pytest

from oracles import holder_quotient_exponent, littlewood_paley_blocks, lq_norm, spectrum_of
from spdecrit.lab import (
    ResolutionError,
    bony_decompose,
    estimate_holder_exponent,
    lp_fields,
    synthetic_field,
    values_of,
)
from spdecrit.lab.fields import max_block


def grid_1d(n):
    return np.arange(n) * (2.0 * math.pi / n)


def _full_spectrum_power(coeffs):
    """Sum of |c_m|^2 over the full spectrum from the half one: every
    column but the first and the last (wavenumber N/2) stands for a
    conjugate pair."""
    weights = np.full(coeffs.shape[-1], 2.0)
    weights[[0, -1]] = 1.0
    return float(np.sum(np.abs(coeffs) ** 2 * weights))


def test_parseval_identity():
    for dim, shape in ((1, (256,)), (2, (32, 16))):
        f = synthetic_field(dim, shape, 0.5, 11)
        power = float(np.mean(values_of(f) ** 2))
        assert abs(power - _full_spectrum_power(f)) <= 1e-12 * power
        g = spectrum_of(values_of(f))  # the forward transform keeps it too
        assert abs(power - _full_spectrum_power(g)) <= 1e-12 * power


def test_hermitian_symmetry_gives_real_samples():
    coeffs = synthetic_field(2, (32, 32), 0.8, 3)
    assert coeffs.shape == (32, 17)
    for j in (0, 16):  # the edge columns are their own mirror along the first axis
        col = coeffs[:, j]
        assert np.all(col[(-np.arange(32)) % 32] == np.conj(col))
    assert np.all(coeffs[[0, 0, 16, 16], [0, 16, 0, 16]].imag == 0.0)
    # the samples carry exactly these coefficients back
    assert np.max(np.abs(spectrum_of(values_of(coeffs)) - coeffs)) <= 1e-14


def test_grid_shape_validation():
    with pytest.raises(ValueError):
        values_of(np.zeros(51))  # the half spectrum of 100 points, not a power of two
    with pytest.raises(ValueError):
        values_of(np.zeros((8, 8, 5)))  # three axes
    with pytest.raises(ValueError):
        lp_fields(np.zeros(2))  # the half spectrum of 2 points, which resolve no block


def test_pure_mode_lands_in_one_block():
    x = grid_1d(64)
    blocks = littlewood_paley_blocks(spectrum_of(np.cos(4 * x)))
    alive = [(j, s) for j, s in blocks if s > 1e-12]
    assert len(alive) == 1 and alive[0][0] == 2


def test_blocks_reconstruct_field():
    for dim, shape in ((1, (128,)), (2, (32, 32))):
        f = synthetic_field(dim, shape, 0.7, 5)
        total = sum(g for _, g in lp_fields(f))
        scale = np.max(np.abs(values_of(f)))
        assert np.max(np.abs(total - values_of(f))) <= 1e-12 * scale


def test_resolution_error_on_tiny_grid():
    with pytest.raises(ResolutionError):
        estimate_holder_exponent(spectrum_of(np.ones(8)))


def test_synthetic_exponent_half_by_both_routes():
    lp_fits, quot_fits = [], []
    for seed in range(8):
        f = synthetic_field(1, (4096,), 0.5, 100 + seed)
        lp_fits.append(estimate_holder_exponent(f))
        quot_fits.append(holder_quotient_exponent(values_of(f)))
    assert abs(np.mean(lp_fits) - 0.5) < 0.1
    assert abs(np.mean(quot_fits) - 0.5) < 0.1


def test_estimator_tracks_prescribed_exponents():
    for target in (-0.25, 0.25, 1.0):
        fits = [estimate_holder_exponent(synthetic_field(1, (4096,), target, 40 + s)) for s in range(8)]
        assert abs(np.mean(fits) - target) < 0.12


def test_product_regularity_follows_min_rule():
    """Numerical route for the analytic product: a field at -1/4 times a
    field at 1 behaves like the worse factor, not like the sum."""
    fits = []
    for seed in range(8):
        a = synthetic_field(1, (4096,), -0.25, 300 + seed)
        b = synthetic_field(1, (4096,), 1.0, 400 + seed)
        fits.append(estimate_holder_exponent(spectrum_of(values_of(a) * values_of(b))))
    mean = float(np.mean(fits))
    assert abs(mean - (-0.25)) < 0.15
    assert mean < 0  # decisively below the homogeneity sum 3/4


def test_bony_parts_sum_to_product():
    for dim, shape in ((1, (256,)), (2, (64, 64))):
        f = synthetic_field(dim, shape, 1.5, 21)
        g = synthetic_field(dim, shape, 0.8, 22)
        lo, hi, res = bony_decompose(f, g)
        product = values_of(f) * values_of(g)
        err = np.max(np.abs(lo + hi + res - product))
        assert err <= 1e-10 * np.max(np.abs(product))


def test_bony_constant_factor_pattern():
    n = 128
    const = np.full(n, 2.0)
    f = spectrum_of(const)
    g = synthetic_field(1, (n,), 0.5, 7)
    lo, hi, res = bony_decompose(f, g)
    blocks = dict(lp_fields(g))
    rough = values_of(g) - blocks[-1]
    assert np.max(np.abs(hi)) <= 1e-12
    assert np.allclose(lo, 2.0 * rough, atol=1e-12)
    assert np.allclose(res, 2.0 * blocks[-1], atol=1e-12)
    assert np.allclose(lo + hi + res, const * values_of(g), atol=1e-12)


def test_resonant_part_grows_for_negative_exponents():
    ratios = []
    for seed in range(4):
        norms = []
        for n in (512, 2048):
            a = synthetic_field(1, (n,), -0.25, 600 + seed)
            b = synthetic_field(1, (n,), -0.25, 700 + seed)
            _, _, res = bony_decompose(a, b)
            norms.append(lq_norm(res, math.inf))
        ratios.append(norms[1] / norms[0])
    assert float(np.mean(ratios)) > 1.2


def test_max_block_is_nyquist_limited():
    assert max_block((256,)) == 7
    assert max_block((64, 64)) == 5
