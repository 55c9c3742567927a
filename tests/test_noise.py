"""White-noise sampling statistics and the per-mode linear solve."""

import numpy as np
import pytest

from spdecrit.lab import sample_spatial_white, solve_z1_mild, solve_z1_mild_batch
from spdecrit.lab.fields import PeriodicField, white_half_spectrum


def test_equal_seeds_equal_fields():
    a = sample_spatial_white(1, (128,), 42)
    b = sample_spatial_white(1, (128,), 42)
    assert np.array_equal(a.values, b.values)
    c = sample_spatial_white(1, (128,), 43)
    assert not np.array_equal(a.values, c.values)


def test_per_mode_variance_flat():
    draws = 4000
    rng = np.random.default_rng(9)
    acc = np.zeros(33)  # the half spectrum of 64 points
    for _ in range(draws):
        acc += np.abs(white_half_spectrum(rng.standard_normal(64), 1)) ** 2
    var = acc / draws
    # unit variance at every mode, including the zero mode
    assert np.all(np.abs(var - 1.0) < 0.1)
    assert abs(np.mean(var) - 1.0) < 0.02


def test_distinct_modes_uncorrelated():
    draws = 4000
    rng = np.random.default_rng(10)
    samples = np.stack([white_half_spectrum(rng.standard_normal(64), 1) for _ in range(draws)])
    cov = np.mean(samples[:, 3] * np.conj(samples[:, 11]))
    assert abs(cov) < 0.05


def test_trajectory_shape_and_times():
    rows = solve_z1_mild(1, (64,), 0.01, 50, seed=1)
    assert rows.shape == (51, 33)  # one half spectrum at each time 0, dt, ..., 50 dt
    assert np.max(np.abs(PeriodicField.from_spectral(rows[0]).values)) == 0.0  # zero initial data


def test_stationary_mode_variance_matches_closed_form():
    dt, steps, burn = 0.05, 2000, 400
    est = {2: [], 4: []}
    for seed in range(6):
        spec = solve_z1_mild(1, (32,), dt, steps, seed=100 + seed)[burn:]
        for m in est:
            est[m].append(np.mean(np.abs(spec[:, m]) ** 2))
    for m, values in est.items():
        target = 1.0 / (2.0 * m**2)
        assert abs(float(np.mean(values)) / target - 1.0) < 0.1


def test_z1_field_smoothness_one_dim():
    from spdecrit.lab import estimate_holder_exponent

    fits = []
    for seed in range(6):
        rows = solve_z1_mild(1, (2048,), 2.5e-3, 400, seed=500 + seed)
        fits.append(estimate_holder_exponent(PeriodicField.from_spectral(rows[-1])))
    assert 0.35 <= float(np.mean(fits)) <= 0.60


def test_two_dims_supported():
    final = PeriodicField.from_spectral(solve_z1_mild(2, (32, 32), 0.01, 20, seed=3)[-1])
    assert final.dim == 2
    assert np.isfinite(final.values).all()


def test_rejects_bad_grids():
    with pytest.raises(ValueError):
        sample_spatial_white(1, (100,), 0)
    with pytest.raises(ValueError):
        solve_z1_mild(3, (16, 16, 16), 0.01, 5, 0)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -0.01])
def test_rejects_non_finite_or_non_positive_dt(dt):
    with pytest.raises(ValueError, match="0 < dt < inf"):
        solve_z1_mild(1, (64,), dt, 8, 0)
    with pytest.raises(ValueError, match="0 < dt < inf"):
        solve_z1_mild_batch(1, (64,), dt, 8, [0, 1])


def test_batch_needs_a_seed():
    with pytest.raises(ValueError, match="at least one seed"):
        solve_z1_mild_batch(1, (64,), 0.01, 8, [])


def test_half_spectrum_layout():
    rows = solve_z1_mild(2, (16, 8), 0.01, 3, seed=2)
    assert PeriodicField.from_spectral(rows[-1]).grid_shape == (16, 8)
    assert rows.shape == (4, 16, 5)
    assert PeriodicField.from_spectral(rows[-1]).values.shape == (16, 8)
    assert sample_spatial_white(1, (64,), 0).spectral.shape == (33,)


@pytest.mark.parametrize(
    "dim,shape,dt,m",
    [
        (1, (4096,), 2.5e-3, 400),  # verify noise: z1(1) in one step instead of 400
        (1, (4096,), 2.5e-3, 50),  # noise sample: one step per written row at the defaults
        (2, (256, 256), 2.5e-3, 10),  # noise sample --dim 2 --grid 256 --steps 100
        (2, (16, 8), 0.01, 7),
    ],
)
def test_one_step_has_the_law_of_m_steps(dim, shape, dt, m):
    """Exact OU steps compose: per mode, one step of m * dt has the decay
    and increment variance of m steps of dt, so the rows a run reads have
    the same law however many unread steps lie between them."""
    from spdecrit.lab.noise import _ou_factors

    decay, std = _ou_factors(dim, shape, dt, m)
    decay_m, std_m = _ou_factors(dim, shape, dt * m, 1)
    weights = np.abs(decay[None]) ** (2 * np.arange(m).reshape((m,) + (1,) * dim))
    composed_var = np.sum(np.abs(std) ** 2 * weights, axis=0)
    # relative, floored at the smallest normal float: a decay that falls
    # to the subnormals keeps fewer digits either way
    tiny = np.finfo(np.float64).tiny
    np.testing.assert_allclose(decay_m, decay**m, rtol=1e-12, atol=tiny)
    np.testing.assert_allclose(np.abs(std_m) ** 2, composed_var, rtol=1e-12, atol=tiny)
    assert np.all(decay_m.imag == 0) and np.all(std_m.imag == 0)
