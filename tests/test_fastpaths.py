"""Every batched or lazy path of the lab against the loop it replaced.

The oracles below are the per-step and per-field loops the lab used
before it kept trajectories as one array; each fast path must give the
same bits, not merely close values.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from hypothesis import given, settings, strategies as st

from spdecrit.lab import PeriodicField, Trajectory
from spdecrit.lab import heat as lh
from spdecrit.lab import noise as ln
from spdecrit.lab import tychonov as lt
from spdecrit.lab.fields import _conjugate_reverse
from spdecrit.suites import _lq_lq

FAST = settings(max_examples=25, deadline=None)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# oracles: the replaced loops


def conjugate_reverse_oracle(a):
    rev = a
    for axis, n in enumerate(a.shape):
        rev = np.take(rev, (-np.arange(n)) % n, axis=axis)
    return np.conj(rev)


def z1_oracle(dim, shape, dt, steps, seed, diffusion_order=2.0, noise_scale=1.0):
    """Per-step draws and one field per step; returns (coeff rows, value rows)."""
    rng = np.random.default_rng(seed)
    lam = PeriodicField(np.zeros(shape)).mode_magnitudes() ** diffusion_order
    decay = np.exp(-lam * dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        var = np.where(lam > 0, (1.0 - np.exp(-2.0 * lam * dt)) / (2.0 * lam), dt)
    std = noise_scale * np.sqrt(var)
    coeffs = np.zeros(shape, dtype=np.complex128)
    rows = [coeffs.copy()]
    for _ in range(steps):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        eta = std * (0.5 * (z + conjugate_reverse_oracle(z)))
        coeffs = decay * coeffs + eta
        rows.append(coeffs.copy())
    values = [(np.fft.ifftn(c) * c.size).real for c in rows]
    return rows, values


def heat_oracle(u_values, n, dt, steps):
    decay = np.exp(-(PeriodicField(u_values).mode_magnitudes() ** 2) * dt)
    values = u_values.copy()
    rows = [values.copy()]
    for _ in range(steps):
        damped = values - dt * values**n
        values = np.real(np.fft.ifftn(decay * np.fft.fftn(damped)))
        rows.append(values.copy())
    return rows


def steklov_oracle(rows, r):
    vals = np.stack(rows)
    m = len(vals)
    padded = np.concatenate([np.zeros((r,) + vals.shape[1:]), vals], axis=0)
    csum = np.concatenate([np.zeros((1,) + vals.shape[1:]), np.cumsum(padded, axis=0)], axis=0)
    return list((csum[r : r + m] - csum[:m]) / r)


def lq_lq_oracle(rows, dt, q):
    dv = PeriodicField(rows[0]).volume_element()
    return sum(float(np.sum(np.abs(v) ** q)) * dv * dt for v in rows) ** (1.0 / q)


def l1_oracle(rows1, rows2):
    dv = PeriodicField(rows1[0]).volume_element()
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
    st.sampled_from([2.0, 1.5]),
    st.sampled_from([1, 768, ln.DRAW_BATCH_BYTES]),  # one step, a few, or all per batch
)
def test_z1_solve_matches_per_step_loop(shape, steps, seed, dt, order, batch_bytes):
    saved = ln.DRAW_BATCH_BYTES
    ln.DRAW_BATCH_BYTES = batch_bytes
    try:
        traj = ln.solve_z1_mild(len(shape), shape, dt, steps, seed, diffusion_order=order)
    finally:
        ln.DRAW_BATCH_BYTES = saved
    coeffs, values = z1_oracle(len(shape), shape, dt, steps, seed, diffusion_order=order)
    assert same_bits(traj.spectral_array(), np.stack(coeffs))
    for field, want in zip(traj.fields, values):
        assert same_bits(field.values, want)
    assert same_bits(traj.times, np.array([0.0] + [(k + 1) * dt for k in range(steps)]))


def test_z1_batched_draws_span_several_batches():
    # 32 points draw 512 steps per batch: 1300 steps take three batches
    traj = ln.solve_z1_mild(1, (32,), 0.05, 1300, 5)
    coeffs, _ = z1_oracle(1, (32,), 0.05, 1300, 5)
    assert same_bits(traj.spectral_array(), np.stack(coeffs))


@FAST
@given(st.sampled_from([(4,), (64,), (8, 8), (4, 16)]), seeds, st.integers(1, 5))
def test_conjugate_reverse_matches_take(shape, seed, lead):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((lead,) + shape) + 1j * rng.standard_normal((lead,) + shape)
    assert same_bits(_conjugate_reverse(a[0]), conjugate_reverse_oracle(a[0]))
    batched = _conjugate_reverse(a, len(shape))
    for row, want in zip(batched, a):
        assert same_bits(row, conjugate_reverse_oracle(want))


def test_hermitian_gaussian_keeps_the_stream():
    for shape in ((64,), (8, 16)):
        new = ln._hermitian_gaussian(np.random.default_rng(3), shape)
        rng = np.random.default_rng(3)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert same_bits(new, 0.5 * (z + conjugate_reverse_oracle(z)))


# ---------------------------------------------------------------------------
# the heat layer


@FAST
@given(st.sampled_from([(16,), (64,), (8, 8)]), seeds, st.sampled_from([3, 5]), st.integers(1, 30))
def test_damped_heat_matches_per_step_loop(shape, seed, n, steps):
    u = smooth_values(shape, seed)
    traj = lh.solve_damped_heat(PeriodicField(u), n, 1e-3, steps)
    want = heat_oracle(u, n, 1e-3, steps)
    assert same_bits(traj.values_array(), np.stack(want))


@FAST
@given(st.sampled_from([(16,), (256,), (8, 8)]), seeds, st.integers(1, 4), st.integers(1, 30))
def test_damped_heat_batch_matches_separate_runs(shape, seed, members, steps):
    data = [smooth_values(shape, seed + i, peak=0.5 + 0.2 * i) for i in range(members)]
    trajs = lh.solve_damped_heat_batch([PeriodicField(u) for u in data], 3, 1e-3, steps)
    assert len(trajs) == members
    for traj, u in zip(trajs, data):
        assert same_bits(traj.values_array(), np.stack(heat_oracle(u, 3, 1e-3, steps)))


@FAST
@given(st.sampled_from([(8,), (16,), (4, 8)]), seeds, st.integers(4, 40), st.sampled_from([1, 2, 3, 5]))
def test_steklov_average_matches_field_loop(shape, seed, length, r):
    rows = list(np.random.default_rng(seed).standard_normal((length,) + shape))
    series = Trajectory(dt=0.1, times=np.arange(length) * 0.1, fields=[PeriodicField(v) for v in rows])
    avg = lh.steklov_average(series, r * 0.1)
    assert same_bits(avg.values_array(), np.stack(steklov_oracle(rows, r)))


@FAST
@given(st.sampled_from([(16,), (64,), (4, 8)]), seeds, st.integers(1, 70), st.sampled_from([1, 2, 3]))
def test_lq_lq_matches_field_loop(shape, seed, length, q):
    rows = list(np.random.default_rng(seed).standard_normal((length,) + shape))
    series = Trajectory(dt=0.01, times=np.arange(length) * 0.01, values=np.stack(rows))
    assert same_bits(_lq_lq(series, q), lq_lq_oracle(rows, 0.01, q))


@FAST
@given(st.sampled_from([(16,), (256,), (8, 8), (32, 16)]), seeds, st.integers(1, 30))
def test_l1_contraction_curve_matches_field_loop(shape, seed, length):
    rng = np.random.default_rng(seed)
    rows1 = list(rng.standard_normal((length,) + shape))
    rows2 = list(rng.standard_normal((length,) + shape))
    times = np.arange(length) * 0.5
    t1 = Trajectory(dt=0.5, times=times, fields=[PeriodicField(v) for v in rows1])
    t2 = Trajectory(dt=0.5, times=times, values=np.stack(rows2))
    assert same_bits(lh.l1_contraction_curve(t1, t2), l1_oracle(rows1, rows2))


def test_l1_curve_on_batched_members():
    # members of one batch are strided views of a shared array
    data = [smooth_values((128,), s) for s in (1, 2)]
    t1, t2 = lh.solve_damped_heat_batch([PeriodicField(u) for u in data], 3, 1e-3, 50)
    want = l1_oracle(heat_oracle(data[0], 3, 1e-3, 50), heat_oracle(data[1], 3, 1e-3, 50))
    assert same_bits(lh.l1_contraction_curve(t1, t2), want)


@FAST
@given(st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False), st.sampled_from([3, 5, 7, 9]))
def test_gap_reuses_powers_bit_for_bit(a, b, n):
    arr_a = np.array([a, b, -a, 0.5 * b])
    arr_b = np.array([b, a, 1.5 * b, -a])
    total = np.zeros(arr_a.shape)
    for l in range(n):
        total = total + arr_a ** (n - 1 - l) * arr_b**l
    want = total - 0.5 * (arr_a ** (n - 1) + arr_b ** (n - 1))
    assert same_bits(lh.proof_inequality_gap(arr_a, arr_b, n), want)


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
