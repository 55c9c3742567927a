"""Every batched or lazy path of the lab against the loop it replaced.

The oracles below are the per-step and per-field loops the lab used
before it kept trajectories as one array; each fast path must give the
same bits, not merely close values.  Where a change of stream made the
old bits unreachable (float powers, the full complex FFT) the old
formula stays as an oracle at a stated relative bound.
"""

import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import (
    damped_heat_batch_oracle,
    holder_exponent_oracle,
    inequality_sweep_oracle,
    l1_contraction_curve,
    spectrum_of,
    tychonov_poly_table_oracle,
    tychonov_residual_float_oracle,
    uniqueness_oracle,
    volume_element,
    z1_batch_per_member_oracle,
)

from spdecrit import suites
from spdecrit.lab import BlowupError, values_of
from spdecrit.lab import fields as lf
from spdecrit.lab import heat as lh
from spdecrit.lab import noise as ln
from spdecrit.lab import tychonov as lt
from spdecrit.lab.fields import mode_magnitudes, white_half_spectrum
from spdecrit.suites import _lq_lq

FAST = settings(max_examples=25, deadline=None)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def traced_peak(run) -> int:
    """The largest traced allocation total while run() runs, in bytes."""
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# oracles: the replaced loops


def z1_oracle(dim, shape, dt, steps, seed, diffusion_order=2.0, noise_scale=1.0):
    """One draw of one normal per grid point and one field per step;
    returns (coeff rows, value rows)."""
    rng = np.random.default_rng(seed)
    lam = mode_magnitudes(shape) ** diffusion_order
    decay = np.exp(-lam * dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        var = np.where(lam > 0, (1.0 - np.exp(-2.0 * lam * dt)) / (2.0 * lam), dt)
    std = noise_scale * np.sqrt(var)
    coeffs = np.zeros(lam.shape, dtype=np.complex128)
    rows = [coeffs.copy()]
    for _ in range(steps):
        eta = std * white_half_spectrum(rng.standard_normal(shape), dim)
        coeffs = decay * coeffs + eta
        rows.append(coeffs.copy())
    values = [np.fft.irfftn(c, s=shape, axes=tuple(range(dim))) * math.prod(shape) for c in rows]
    return rows, values


def heat_oracle(u_values, n, dt, steps):
    dim = u_values.ndim
    decay = np.exp(-(mode_magnitudes(u_values.shape) ** 2) * dt)
    values = u_values.copy()
    rows = [values.copy()]
    for _ in range(steps):
        power = values
        for _ in range(n - 1):
            power = power * values
        damped = values - dt * power
        values = np.fft.irfftn(decay * np.fft.rfftn(damped), s=u_values.shape, axes=tuple(range(dim)))
        rows.append(values.copy())
    return rows


def heat_full_fft_oracle(u_values, n, dt, steps):
    """The step before the real FFT: full complex transforms and float powers."""
    axes = [np.fft.fftfreq(k, d=1.0 / k) for k in u_values.shape]
    mags2 = sum(g * g for g in np.meshgrid(*axes, indexing="ij"))
    decay = np.exp(-mags2 * dt)
    values = u_values.copy()
    rows = [values.copy()]
    for _ in range(steps):
        damped = values - dt * values**n
        values = np.real(np.fft.ifftn(decay * np.fft.fftn(damped)))
        rows.append(values.copy())
    return rows


def gap_power_oracle(a, b, n):
    """The pairing gap with float ** for every power."""
    total = np.zeros(np.broadcast(a, b).shape)
    for l in range(n):
        total = total + a ** (n - 1 - l) * b**l
    return total - 0.5 * (a ** (n - 1) + b ** (n - 1))


def steklov_oracle(rows, r):
    vals = np.stack(rows)
    m = len(vals)
    padded = np.concatenate([np.zeros((r,) + vals.shape[1:]), vals], axis=0)
    csum = np.concatenate([np.zeros((1,) + vals.shape[1:]), np.cumsum(padded, axis=0)], axis=0)
    return list((csum[r : r + m] - csum[:m]) / r)


def lq_lq_oracle(rows, dt, q):
    dv = volume_element(rows[0].shape)
    return sum(float(np.sum(np.abs(v) ** q)) * dv * dt for v in rows) ** (1.0 / q)


def l1_oracle(rows1, rows2):
    dv = volume_element(rows1[0].shape)
    return np.array([float(np.sum(np.abs(a - b)) * dv) for a, b in zip(rows1, rows2)])


def horner_mp_oracle(p, s):
    acc = mp.mpf(0)
    for c in reversed(p):
        acc = acc * s + mp.mpf(c.numerator) / mp.mpf(c.denominator)
    return acc


def g_derivative_mp_oracle(series, k, t):
    if t <= 0:
        return mp.mpf(0)
    s = mp.mpf(1) / mp.mpf(t)
    return horner_mp_oracle(series.poly(k), s) * mp.e ** (-(s**series.alpha))


def tychonov_eval_mp_oracle(series, t, x, K):
    if t <= 0:
        return mp.mpf(0)
    total = mp.mpf(0)
    x = mp.mpf(x)
    for k in range(K + 1):
        total += g_derivative_mp_oracle(series, k, t) * x ** (2 * k) / mp.factorial(2 * k)
    return total


def fd_heat_residual_oracle(series, K, t, x, delta="1e-25", dps=120):
    with mp.workdps(dps):
        d, t, x = mp.mpf(delta), mp.mpf(t), mp.mpf(x)
        u = lambda tt, xx: tychonov_eval_mp_oracle(series, tt, xx, K)
        du_dt = (u(t + d, x) - u(t - d, x)) / (2 * d)
        d2u_dx2 = (u(t, x + d) - 2 * u(t, x) + u(t, x - d)) / (d * d)
        return du_dt - d2u_dx2


def mp_bits(v):
    return v._mpf_


# ---------------------------------------------------------------------------
# data


def smooth_values(shape, seed, peak=1.0):
    """Random low trigonometric data scaled to a given peak."""
    rng = np.random.default_rng(seed)
    axes = [np.arange(n) * (2.0 * math.pi / n) for n in shape]
    grids = np.meshgrid(*axes, indexing="ij")
    vals = np.zeros(shape)
    for _ in range(3):
        k = rng.integers(0, 4, size=len(shape))
        vals += rng.uniform(-1, 1) * np.cos(sum(ki * g for ki, g in zip(k, grids)) + rng.uniform(0, 6))
    top = float(np.max(np.abs(vals)))
    return vals * (peak / top) if top > 0 else vals


shapes = st.sampled_from([(4,), (16,), (64,), (8, 8), (16, 4)])
seeds = st.integers(0, 2**31 - 1)


# ---------------------------------------------------------------------------
# the noise layer


@FAST
@given(
    shapes,
    st.integers(1, 40),
    seeds,
    st.sampled_from([0.01, 0.05, 2.5e-3]),
    st.sampled_from([1, 384, ln.DRAW_BATCH_BYTES]),  # one step, a few, or all per batch
)
def test_z1_solve_matches_per_step_loop(shape, steps, seed, dt, batch_bytes):
    saved = ln.DRAW_BATCH_BYTES
    ln.DRAW_BATCH_BYTES = batch_bytes
    try:
        rows = ln.solve_z1_mild(len(shape), shape, dt, steps, seed)
    finally:
        ln.DRAW_BATCH_BYTES = saved
    coeffs, values = z1_oracle(len(shape), shape, dt, steps, seed)
    assert same_bits(rows, np.stack(coeffs))
    for row, want in zip(rows, values):
        assert same_bits(values_of(row), want)


def test_z1_batched_draws_span_several_batches():
    # 32 points draw 1024 steps per batch: 2300 steps take three batches
    rows = ln.solve_z1_mild(1, (32,), 0.05, 2300, 5)
    coeffs, _ = z1_oracle(1, (32,), 0.05, 2300, 5)
    assert same_bits(rows, np.stack(coeffs))


@FAST
@given(shapes, st.integers(1, 30), st.lists(seeds, min_size=1, max_size=5), st.sampled_from([1, 384]))
def test_z1_batch_matches_separate_solves(shape, steps, member_seeds, batch_bytes):
    saved = ln.DRAW_BATCH_BYTES
    ln.DRAW_BATCH_BYTES = batch_bytes
    try:
        batch = ln.solve_z1_mild_batch(len(shape), shape, 0.01, steps, member_seeds)
        alone = [ln.solve_z1_mild(len(shape), shape, 0.01, steps, s) for s in member_seeds]
    finally:
        ln.DRAW_BATCH_BYTES = saved
    assert len(batch) == len(member_seeds)
    for got, want in zip(batch, alone):
        assert same_bits(got, want)
        for row, want_row in zip(got, want):
            assert same_bits(values_of(row), values_of(want_row))


# three members of 32 points draw 341 steps per batch and of 16 x 8
# points 85, so both span several batches
@pytest.mark.parametrize("shape,steps", [((32,), 2300), ((16, 8), 600)])
def test_z1_batch_spans_several_draw_batches(shape, steps):
    member_seeds = [5, 11, 2**31 - 1]
    batch = ln.solve_z1_mild_batch(len(shape), shape, 0.05, steps, member_seeds)
    for got, s in zip(batch, member_seeds):
        assert same_bits(got, ln.solve_z1_mild(len(shape), shape, 0.05, steps, s))
        coeffs, _ = z1_oracle(len(shape), shape, 0.05, steps, s)
        assert same_bits(got, np.stack(coeffs))


@pytest.mark.parametrize(
    "shape,steps,members",
    [((32,), 2300, 3), ((16, 8), 600, 3), ((4096,), 1, 16), ((32,), 2400, 8), ((64,), 700, 1)],
)
def test_z1_batch_draws_match_per_member_batches(shape, steps, members):
    # the draw batch counts every member's bytes; the old one counted one member's
    member_seeds = [int(s) for s in np.random.default_rng(steps).integers(0, 2**31, size=members)]
    batch = ln.solve_z1_mild_batch(len(shape), shape, 0.05, steps, member_seeds)
    want = z1_batch_per_member_oracle(len(shape), shape, 0.05, steps, member_seeds)
    assert same_bits(batch, want)


@pytest.mark.parametrize("draws", [1, suites._WHITE_ROWS - 1, suites._WHITE_ROWS, suites._WHITE_ROWS + 1, 10_000])
@pytest.mark.parametrize("points,modes", [(64, (0, 5, 9)), (16, (8, 0, 3))])
def test_white_modes_match_the_full_half_spectrum(draws, points, modes):
    full = white_half_spectrum(np.random.default_rng(draws).standard_normal((draws, points)), 1)
    assert same_bits(suites._white_modes(draws, draws, points, modes), full[:, modes].T)


def test_noise_suite_stays_under_a_fixed_bound():
    """At its default size; drawing the flat-spectrum normals whole and
    a draw batch per member took 19.4 MB."""
    suites.run_noise(seed=0, grid=64, ensembles=1)  # caches filled outside the trace
    assert traced_peak(lambda: suites.run_noise(seed=0, grid=4096, ensembles=16)) < 12 * 2**20


@pytest.mark.parametrize("shape", [(64,), (256,), (4096,), (64, 64), (128, 64), (256, 256)])
@pytest.mark.parametrize("seed,exponent", [(0, -0.25), (7, 0.5), (2**31 - 1, 1.5)])
def test_exponent_fit_block_by_block_matches_lp_fields(shape, seed, exponent):
    f = lf.synthetic_field(len(shape), shape, exponent, seed)
    assert same_bits(lf.estimate_holder_exponent(f), holder_exponent_oracle(f))
    white = ln.sample_spatial_white(len(shape), shape, seed)
    assert same_bits(lf.estimate_holder_exponent(white), holder_exponent_oracle(white))


def test_exponent_fit_holds_one_block_at_a_time():
    """On 256 x 256, under five arrays of the field's half spectrum;
    building every lp_fields block first took 14."""
    f = lf.synthetic_field(2, (256, 256), 0.5, 3)
    lf.estimate_holder_exponent(lf.synthetic_field(2, (64, 64), 0.5, 3))  # caches filled outside the trace
    assert traced_peak(lambda: lf.estimate_holder_exponent(f)) < 5 * f.nbytes


# ---------------------------------------------------------------------------
# the half-spectrum sampler: exact structure and second moments


def _self_conjugate(shape):
    """Index tuples of the half-spectrum modes with m = -m."""
    axes = [(0, n // 2) for n in shape[:-1]] + [(0, shape[-1] // 2)]
    return [tuple(idx) for idx in np.array(np.meshgrid(*axes, indexing="ij")).reshape(len(shape), -1).T]


@FAST
@given(st.sampled_from([(4,), (64,), (4, 4), (8, 16), (16, 8)]), seeds, st.integers(1, 4))
def test_white_half_spectrum_is_exactly_hermitian(shape, seed, lead):
    c = white_half_spectrum(np.random.default_rng(seed).standard_normal((lead,) + shape), len(shape))
    assert c.shape == (lead,) + shape[:-1] + (shape[-1] // 2 + 1,)
    for idx in _self_conjugate(shape):
        assert np.all(c[(Ellipsis,) + idx].imag == 0.0)
    if len(shape) == 2:
        n0 = shape[0]
        for j in (0, c.shape[-1] - 1):
            col = c[..., j]
            assert np.all(col[..., (-np.arange(n0)) % n0] == np.conj(col))


@FAST
@given(st.sampled_from([(4,), (64,), (8, 8), (16, 4)]), seeds)
def test_white_half_spectrum_round_trips(shape, seed):
    c = white_half_spectrum(np.random.default_rng(seed).standard_normal(shape), len(shape))
    again = spectrum_of(values_of(c))
    assert np.max(np.abs(again - c)) <= 1e-12


def test_white_half_spectrum_second_moments():
    # 40,000 fields: a mean of squares of variance-1/2 parts has standard
    # error sqrt(2 * 0.25 / 40000) = 0.0035; every tolerance is over 8 of those
    draws = 40_000
    for shape in ((16,), (8, 8)):
        c = white_half_spectrum(np.random.default_rng(11).standard_normal((draws,) + shape), len(shape))
        power = np.mean(np.abs(c) ** 2, axis=0)
        assert np.all(np.abs(power - 1.0) < 0.05)  # E|c_m|^2 = 1 at every mode
        re2 = np.mean(c.real**2, axis=0)
        im2 = np.mean(c.imag**2, axis=0)
        mixed = np.mean(c.real * c.imag, axis=0)
        selfconj = np.zeros(power.shape, dtype=bool)
        for idx in _self_conjugate(shape):
            selfconj[idx] = True
        assert np.all(np.abs(re2[selfconj] - 1.0) < 0.05)
        assert np.all(im2[selfconj] == 0.0)
        assert np.all(np.abs(re2[~selfconj] - 0.5) < 0.03)
        assert np.all(np.abs(im2[~selfconj] - 0.5) < 0.03)
        assert np.all(np.abs(mixed) < 0.03)
        # distinct kept modes are uncorrelated
        flat = c.reshape(draws, -1)
        cov = np.abs(flat.conj().T @ flat / draws - np.diag(power.ravel()))
        assert np.max(cov) < 0.05


# ---------------------------------------------------------------------------
# the heat layer


@pytest.fixture(params=["ufuncs", "public"])
def fft_pair_source(request, monkeypatch):
    """real_fft_pair as it binds numpy's real-FFT ufuncs, and as it falls
    back to the public functions where numpy lacks their private module."""
    lf._pocketfft_ufuncs.cache_clear()
    if request.param == "public":
        monkeypatch.delattr(np.fft, "_pocketfft_umath")
        monkeypatch.setitem(sys.modules, "numpy.fft._pocketfft_umath", None)
        assert lf._pocketfft_ufuncs() is None
    else:
        assert lf._pocketfft_ufuncs() is not None
    yield request.param
    lf._pocketfft_ufuncs.cache_clear()


# the stacks the suites march (five, two and one rows of 256 points), a
# single row, and even and odd lengths
@pytest.mark.parametrize(
    "shape", [(5, 256), (2, 256), (1, 256), (256,), (3, 16), (16,), (2, 15), (15,), (4, 255), (255,)]
)
def test_real_fft_pair_matches_numpys_public_transforms(fft_pair_source, shape):
    n = shape[-1]
    rng = np.random.default_rng(n)
    x = rng.standard_normal(shape)
    forward, inverse = lf.real_fft_pair(n)
    spectrum = np.empty(shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    forward(x, spectrum)
    assert same_bits(spectrum, np.fft.rfft(x))
    back = np.empty(shape)
    inverse(spectrum, back)
    assert same_bits(back, np.fft.irfft(spectrum, n=n))
    # any half spectrum, not only a real field's
    c = rng.standard_normal(spectrum.shape) + 1j * rng.standard_normal(spectrum.shape)
    inverse(c, back)
    assert same_bits(back, np.fft.irfft(c, n=n))


def assert_march_rows(values, n, dts, steps, want):
    """Run _march over the stack values, its members by nonincreasing
    steps, and hold each block row by row against want[i], member i's
    rows from step 0; every row of every member is compared once."""
    done = 0
    for first, rows in lh._march(values, n, dts, steps):
        assert first == done
        done += len(rows)
        for i, member in enumerate(want):
            size = min(len(rows), len(member) - first)
            if size > 0:
                assert same_bits(rows[:size, i], member[first : first + size])
    assert done == len(want[0])


@pytest.mark.parametrize("n", [3, 5])
def test_damped_heat_march_is_the_same_on_either_fft_pair(fft_pair_source, n):
    data = [smooth_values((256,), seed, peak=0.5 + 0.2 * seed) for seed in range(3)]
    want = [np.stack(heat_oracle(u, n, 1e-3, steps)) for u, steps in zip(data, [40, 25, 7])]
    assert_march_rows(np.stack(data), n, [1e-3] * 3, [40, 25, 7], want)


@FAST
@given(st.sampled_from([(16,), (64,)]), seeds, st.sampled_from([3, 5]), st.integers(1, 30))
def test_damped_heat_matches_per_step_loop(shape, seed, n, steps):
    u = smooth_values(shape, seed)
    assert_march_rows(u[None], n, [1e-3], [steps], [np.stack(heat_oracle(u, n, 1e-3, steps))])


@FAST
@given(st.sampled_from([(16,), (256,)]), seeds, st.integers(1, 4), st.integers(1, 30))
def test_damped_heat_batch_matches_separate_runs(shape, seed, members, steps):
    data = [smooth_values(shape, seed + i, peak=0.5 + 0.2 * i) for i in range(members)]
    want = [np.stack(heat_oracle(u, 3, 1e-3, steps)) for u in data]
    assert_march_rows(np.stack(data), 3, [1e-3] * members, [steps] * members, want)


@FAST
@given(
    st.sampled_from([(16,), (256,)]),
    seeds,
    st.lists(st.tuples(st.sampled_from([1e-3, 5e-4, 2e-3]), st.integers(1, 30)), min_size=1, max_size=5),
)
def test_stacked_runs_with_own_steps_match_separate_runs(shape, seed, runs):
    # each member with its own dt and step count; members drop out as they finish
    runs = sorted(runs, key=lambda run: -run[1])
    data = [smooth_values(shape, seed + i, peak=0.5 + 0.1 * i) for i in range(len(runs))]
    dts, steps = map(list, zip(*runs))
    want = [np.stack(heat_oracle(u, 3, dt, count)) for u, (dt, count) in zip(data, runs)]
    assert_march_rows(np.stack(data), 3, dts, steps, want)
    for u, (dt, count), rows in zip(data, runs, want):
        assert_march_rows(u[None], 3, [dt], [count], [rows])


def test_uniqueness_stack_matches_separate_runs():
    # the fine run at half the coarse run's step, the coarse run, and three
    # contraction runs, in the suite's order
    from spdecrit.suites import _smooth_data

    data = [_smooth_data(256, k) for k in (0, 0, 0, 1, 2)]
    dts = [5e-4, 1e-3, 4e-3, 4e-3, 4e-3]
    steps = [200, 100, 25, 25, 25]
    want = [np.stack(heat_oracle(u, 3, dt, count)) for u, dt, count in zip(data, dts, steps)]
    assert_march_rows(np.stack(data), 3, dts, steps, want)


# step counts up to about three blocks of the march, those next to a
# block edge drawn often: a member's last row on, just before or just
# after an edge (a block's rows start at a multiple of _BLOCK)
_EDGES = sorted({1, 2} | {b * lh._BLOCK + d for b in (1, 2, 3) for d in (-1, 0, 1)})
block_steps = st.one_of(st.sampled_from(_EDGES), st.integers(1, 3 * lh._BLOCK + 1))
# (n, dt, points) of each march in test_heat.py's flow-property tests,
# which run through damped_heat_batch_oracle; each is one example below
_FLOW_CASES = [
    (3, 1e-3, 64), (3, 1e-3, 128), (3, 1e-3, 256), (3, 1e-4, 32), (5, 1e-4, 32),
    (3, 2e-4, 256), (3, 1e-4, 256), (3, 4e-3, 256), (3, 2e-3, 256), (3, 1e-14, 16),
]


def flow_examples(test):
    """test with one explicit example per flow case: a run across a block
    edge marched beside a short run at another dt."""
    for n, dt, points in _FLOW_CASES:
        test = example(shape=(points,), seed=1, n=n, runs=[(dt, lh._BLOCK + 1), (1e-3, 2)])(test)
    return test


@FAST
@flow_examples
@given(
    st.sampled_from([(16,), (32,), (64,), (128,), (256,)]),
    seeds,
    st.sampled_from([3, 5]),
    st.lists(
        st.tuples(st.sampled_from([1e-3, 5e-4, 2e-3, 1e-4, 2e-4, 4e-3, 1e-14]), block_steps), min_size=1, max_size=4
    ),
)
def test_blocked_march_matches_stacked_loop(shape, seed, n, runs):
    runs = sorted(runs, key=lambda run: -run[1])
    data = [smooth_values(shape, seed + i, peak=0.5 + 0.1 * i) for i in range(len(runs))]
    dts, steps = map(list, zip(*runs))
    want = damped_heat_batch_oracle(data, n, dts, steps)
    assert_march_rows(np.stack(data), n, dts, steps, want)


@pytest.mark.parametrize("hidden", [1, lh._BLOCK - 2, lh._BLOCK - 1, lh._BLOCK, 2 * lh._BLOCK + 3])
def test_blowup_inside_a_block_names_the_loops_step(hidden):
    """While a NaN member marches, the stack's max is NaN and the guard
    passes; the step after it finishes is the first to trip, wherever
    that step falls in a block.  No warning and no error state leaks."""
    import warnings

    big, nan = np.full(16, 2.0e6), np.full(16, np.nan)
    steps = [3 * lh._BLOCK, hidden]
    with pytest.raises(BlowupError) as want:
        damped_heat_batch_oracle([big, nan], 3, 1.0e-20, steps)
    state = np.geterr()
    with warnings.catch_warnings(record=True) as caught, pytest.raises(BlowupError) as got:
        warnings.simplefilter("always")
        for _ in lh._march(np.stack([big, nan]), 3, [1.0e-20] * 2, steps):
            pass
    assert str(got.value) == str(want.value) == f"field exceeded 1e+06 at step {hidden + 1}"
    assert [str(w.message) for w in caught] == []
    assert np.geterr() == state


@pytest.mark.parametrize(
    "grid,steps,dt,n",
    [
        (16, 300, 1e-3, 3),  # at dt >= 1e-3 the contraction runs are as long as the dt run
        (32, 3 * lh._BLOCK + 1, 1e-3, 5),
        (64, lh._BLOCK // 2, 2e-3, 3),  # the dt/2 run's last row opens a block
        (128, lh._BLOCK - 1, 1e-3, 3),
        (256, 500, 1e-4, 3),  # contraction runs of 50 steps at 1e-3
        (256, lh._BLOCK + 1, 1e-4, 5),
    ],
)
def test_streamed_uniqueness_matches_stored_trajectories(grid, steps, dt, n):
    tmax = steps * dt
    assert round(tmax / dt) == steps
    got = suites.run_uniqueness(n=n, dim=1, grid=grid, tmax=tmax, dt=dt)
    assert repr(got) == repr(uniqueness_oracle(n=n, grid=grid, tmax=tmax, dt=dt))


def test_streamed_uniqueness_stores_only_the_dt_run():
    """The traced peak stays under the dt run's rows; storing all of them
    took 1.2 times that, and storing all five trajectories and a
    difference array over four times."""
    grid, tmax, dt = 256, 0.5, 1e-4
    coarse_bytes = (round(tmax / dt) + 1) * grid * 8
    suites.run_uniqueness(n=3, dim=1, grid=16, tmax=0.01, dt=1e-3)  # caches filled outside the trace
    assert traced_peak(lambda: suites.run_uniqueness(n=3, dim=1, grid=grid, tmax=tmax, dt=dt)) < coarse_bytes


@FAST
@given(st.sampled_from([(16,), (64,)]), seeds, st.sampled_from([3, 5]), st.integers(1, 30))
def test_damped_heat_tracks_full_fft_power_step(shape, seed, n, steps):
    u = smooth_values(shape, seed)
    got = np.concatenate([rows[:, 0].copy() for _, rows in lh._march(u[None], n, [1e-3], [steps])])
    want = np.stack(heat_full_fft_oracle(u, n, 1e-3, steps))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@FAST
@given(st.sampled_from([(8,), (16,), (4, 8)]), seeds, st.integers(4, 40), st.sampled_from([1, 2, 3, 5]))
def test_steklov_average_matches_field_loop(shape, seed, length, r):
    rows = list(np.random.default_rng(seed).standard_normal((length,) + shape))
    avg = lh.steklov_average(np.stack(rows), r)
    assert same_bits(avg, np.stack(steklov_oracle(rows, r)))


@FAST
@given(st.sampled_from([(16,), (64,), (4, 8)]), seeds, st.integers(1, 70), st.sampled_from([1, 2, 3]))
def test_lq_lq_matches_field_loop(shape, seed, length, q):
    rows = list(np.random.default_rng(seed).standard_normal((length,) + shape))
    assert same_bits(_lq_lq(np.stack(rows), q, 0.01), lq_lq_oracle(rows, 0.01, q))


@FAST
@given(st.sampled_from([(16,), (256,), (8, 8), (32, 16)]), seeds, st.integers(1, 30))
def test_l1_contraction_curve_matches_field_loop(shape, seed, length):
    rng = np.random.default_rng(seed)
    rows1 = list(rng.standard_normal((length,) + shape))
    rows2 = list(rng.standard_normal((length,) + shape))
    assert same_bits(l1_contraction_curve(np.stack(rows1), np.stack(rows2)), l1_oracle(rows1, rows2))


def test_l1_curve_on_batched_members():
    # the curve of two members of one march, block by block as the suite reduces it
    data = [smooth_values((128,), s) for s in (1, 2)]
    dv = volume_element(data[0].shape)
    got = [lh._l1_rows(rows[:, 0] - rows[:, 1], dv) for _, rows in lh._march(np.stack(data), 3, [1e-3] * 2, [300] * 2)]
    want = l1_oracle(heat_oracle(data[0], 3, 1e-3, 300), heat_oracle(data[1], 3, 1e-3, 300))
    assert same_bits(np.concatenate(got), want)


@FAST
@given(st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False), st.sampled_from([3, 5, 7, 9]))
def test_gap_by_products_tracks_power_oracle(a, b, n):
    arr_a = np.array([a, b, -a, 0.5 * b])
    arr_b = np.array([b, a, 1.5 * b, -a])
    got = lh.proof_inequality_gap(arr_a, arr_b, n)
    want = gap_power_oracle(arr_a, arr_b, n)
    # the relative bound, floored at the smallest normal float: powers of
    # tiny inputs are subnormal, where one rounding is a whole subnormal step
    bound = 1e-12 * np.maximum(np.abs(arr_a), np.abs(arr_b)) ** (n - 1) + np.finfo(np.float64).tiny
    assert np.all(np.abs(got - want) <= bound)
    assert lh.proof_inequality_gap(a, b, n) == got[0]  # scalars take the same path


def test_gap_by_products_on_the_suite_range():
    rng = np.random.default_rng(0)
    a = rng.uniform(-10.0, 10.0, size=100_000)
    b = rng.uniform(-10.0, 10.0, size=100_000)
    for n in (3, 5, 7, 9):
        scale = np.maximum(np.abs(a), np.abs(b)) ** (n - 1)
        err = np.abs(lh.proof_inequality_gap(a, b, n) - gap_power_oracle(a, b, n)) / scale
        assert float(np.max(err)) <= 1e-12


@pytest.mark.parametrize(
    "samples",
    [1000, suites._INEQUALITY_BLOCK, suites._INEQUALITY_BLOCK + 1, 3 * suites._INEQUALITY_BLOCK, 77_881],
)
def test_inequality_blocks_match_whole_array(monkeypatch, samples):
    sizes = []
    gap = lh.proof_inequality_gap

    def counted(a, b, n):
        sizes.append(len(a))
        return gap(a, b, n)

    monkeypatch.setattr(lh, "proof_inequality_gap", counted)
    result = suites.run_inequality(n=None, samples=samples, seed=samples)
    assert max(sizes) <= suites._INEQUALITY_BLOCK and sum(sizes) == 4 * samples
    got = [(c["value"], c["passed"]) for c in result["checks"][:-1]]
    want = inequality_sweep_oracle((3, 5, 7, 9), samples, seed=samples)
    signed = lambda pairs: [(v, math.copysign(1.0, v), ok) for v, ok in pairs]  # -0.0 != 0.0 in JSON
    assert signed(got) == signed(want)


@pytest.mark.parametrize("n", [None, 3, 5])
@pytest.mark.parametrize(
    "samples",
    [1, suites._INEQUALITY_BLOCK - 1, suites._INEQUALITY_BLOCK, suites._INEQUALITY_BLOCK + 1,
     3 * suites._INEQUALITY_BLOCK + 7],
)
def test_inequality_advanced_draws_match_whole_array(n, samples):
    result = suites.run_inequality(n=n, samples=samples, seed=samples + 3)
    got = [(c["value"], c["passed"]) for c in result["checks"][:-1]]
    want = inequality_sweep_oracle((3, 5, 7, 9) if n is None else (n,), samples, seed=samples + 3)
    signed = lambda pairs: [(v, math.copysign(1.0, v), ok) for v, ok in pairs]  # -0.0 != 0.0 in JSON
    assert signed(got) == signed(want)


def test_inequality_sweep_memory_does_not_grow_with_samples():
    """Drawing whole sample arrays took 18.6 MB at 2^20 samples, 15.7 MB
    more than at 2^16."""
    block_bytes = 8 * suites._INEQUALITY_BLOCK
    suites.run_inequality(n=3, samples=10, seed=0)  # caches filled outside the trace
    small = traced_peak(lambda: suites.run_inequality(n=3, samples=1 << 16, seed=1))
    big = traced_peak(lambda: suites.run_inequality(n=3, samples=1 << 20, seed=1))
    assert big < small + 2 * block_bytes
    assert big < 12 * block_bytes


def test_power_by_products_tracks_float_power():
    x = np.random.default_rng(1).uniform(-3.0, 3.0, size=1000)
    for k in range(1, 10):
        assert np.allclose(lh._power(x, k), x**k, rtol=1e-14, atol=0.0)
    assert same_bits(lh._power(x, 1), x)


# ---------------------------------------------------------------------------
# the Tychonov mp path


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.fractions(Fraction(1, 4), Fraction(3, 2), max_denominator=16),
    st.fractions(Fraction(-3, 2), Fraction(3, 2), max_denominator=16),
)
def test_mp_path_matches_oracle_across_precisions(alpha, t, x):
    series = lt.TychonovSeries.build(alpha, 4)
    t = mp.mpf(t.numerator) / t.denominator
    x = mp.mpf(x.numerator) / x.denominator
    # Low, high, low again.  The integer coefficients of P_12 need more
    # than the 20 bits of 5 digits, so a cache that ignores the
    # precision hands rounded ones to the high-precision round.
    for dps in (5, 50, 5):
        with mp.workdps(dps):
            for k in range(13):
                assert mp_bits(series.g_derivative_mp(k, t)) == mp_bits(g_derivative_mp_oracle(series, k, t))
            got = lt.tychonov_eval_mp(series, t, x, 12)
            assert mp_bits(got) == mp_bits(tychonov_eval_mp_oracle(series, t, x, 12))


def test_mp_eval_vanishes_for_nonpositive_time():
    series = lt.TychonovSeries.build(2, 4)
    for t in (0, -0.5, mp.mpf("-1e-30")):
        assert lt.tychonov_eval_mp(series, t, 0.3, 6) == 0


def test_fd_residual_matches_five_point_oracle():
    series = lt.TychonovSeries.build(2, 12)
    for t, x in ((0.5, -1.0), (0.75, 0.5), (1.0, 1.0)):
        got = lt.fd_heat_residual(series, 10, t, x, dps=60)
        with mp.workdps(60):
            assert mp_bits(got) == mp_bits(fd_heat_residual_oracle(series, 10, t, x, dps=60))


def test_integer_poly_table_matches_fraction_recurrence():
    for alpha in (2, 3, 4, 5):
        table = lt.TychonovSeries.build(alpha, 40).poly_table
        oracle = tychonov_poly_table_oracle(alpha, 40)
        assert table == oracle
        assert [len(p) for p in table] == [len(p) for p in oracle]
        assert all(type(c) is int for p in table for c in p)


def test_tychonov_suite_evaluates_each_time_once(monkeypatch):
    from spdecrit import suites

    calls = []
    horner = lt._horner_mp

    def counted(coeffs, s):
        calls.append(None)
        return horner(coeffs, s)

    monkeypatch.setattr(lt, "_horner_mp", counted)
    assert suites.run_tychonov(alpha=2, terms=30, region=(0.5, 1.0, -1.0, 1.0))["passed"]
    # 5 times x (K+1 terms at t - delta, t, t + delta, plus g^(K+1)(t)) at K = 30
    assert len(calls) <= 470


def test_fd_residual_cache_keeps_precision_and_series_apart():
    t, x = 0.75, 0.5
    series = lt.TychonovSeries.build(2, 12)
    for dps in (60, 120, 60):
        got = lt.fd_heat_residual(series, 10, t, x, dps=dps)
        with mp.workdps(dps):
            assert mp_bits(got) == mp_bits(fd_heat_residual_oracle(series, 10, t, x, dps=dps))
    for alpha in (2, 3):
        other = lt.TychonovSeries.build(alpha, 12)
        got = lt.fd_heat_residual(other, 10, t, x, dps=60)
        with mp.workdps(60):
            assert mp_bits(got) == mp_bits(fd_heat_residual_oracle(other, 10, t, x, dps=60))


def test_residual_bound_keeps_its_bits_where_the_factorial_is_a_double():
    series = lt.TychonovSeries.build(2, 90)
    t_grid = np.linspace(0.5, 1.0, 5).tolist()
    for x_grid in (np.linspace(-1.0, 1.0, 5).tolist(), [0.3, 1.7, -2.5]):
        for K in (1, 12, 30, 40, 84, 85):
            got = lt.tychonov_residual(series, K, t_grid, x_grid)
            assert same_bits(got, tychonov_residual_float_oracle(series, K, t_grid, x_grid))


def test_residual_bound_past_170_factorial_divides_exactly():
    series = lt.TychonovSeries.build(2, 100)
    t_grid = np.linspace(0.5, 1.0, 5).tolist()
    x_grid = np.linspace(-1.0, 1.0, 5).tolist()
    for K in (86, 90, 99):
        got = lt.tychonov_residual(series, K, t_grid, x_grid)
        with mp.workdps(60):
            fact = mp.factorial(2 * K)
            want = max(
                abs(series.g_derivative(K + 1, t)) * abs(x) ** (2 * K) / fact for t in t_grid for x in x_grid
            )
        assert 0.0 < got and abs(got - float(want)) <= 1e-15 * float(want)
