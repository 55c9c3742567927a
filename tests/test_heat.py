"""Damped flow integration, window averages, and the uniqueness algebra."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    SmoothTestFunction,
    damped_heat_batch_oracle,
    l1_contraction_curve,
    lq_norm,
    pairing_certificate_sides,
    pairing_gap_factored,
    power_difference_residual,
    subsample,
    weak_residual,
)
from spdecrit.lab import (
    BlowupError,
    proof_inequality_gap,
    proof_inequality_gap_exact,
    steklov_average,
)
from spdecrit.lab.heat import _checked, _march


def grid(n=256):
    return np.arange(n) * (2.0 * math.pi / n)


def smooth_field(n=256):
    x = grid(n)
    return np.sin(x) + 0.5 * np.cos(2 * x)


def stack(*fields):
    """Fields' values as the (members, points) stack a march takes."""
    return np.stack(fields)


# ---------------------------------------------------------------------------
# the damped flow, by the stacked-march oracle, which test_fastpaths.py
# holds _march to bit for bit at each (n, dt, grid) marched here


def test_zero_data_stays_zero():
    (traj,) = damped_heat_batch_oracle([np.zeros(64)], 3, 1e-3, 100)
    assert all(np.max(np.abs(row)) == 0.0 for row in traj)


@pytest.mark.parametrize("n,c", [(3, 1.0), (5, 0.8)])
def test_constant_data_tracks_ode(n, c):
    """Spatially constant data reduces the flow to u' = -u^n, whose
    solution is c (1 + (n-1) c^(n-1) t)^(-1/(n-1))."""
    dt, T = 1e-4, 1.0
    (traj,) = damped_heat_batch_oracle([np.full(32, c)], n, dt, round(T / dt))
    exact = c * (1.0 + (n - 1) * c ** (n - 1) * T) ** (-1.0 / (n - 1))
    assert abs(traj[-1][0] - exact) < 1e-3


def test_energy_strictly_decreasing():
    (traj,) = damped_heat_batch_oracle([smooth_field()], 3, 1e-3, 500)
    energy = 0.5 * np.array([np.mean(row**2) for row in traj])
    assert np.all(np.diff(energy) < 0)


# the checks the uniqueness suite runs before it marches


def test_odd_power_enforced():
    with pytest.raises(ValueError):
        _checked(stack(smooth_field()), 4, [1e-3], [10])
    with pytest.raises(ValueError):
        _checked(stack(smooth_field()), 1, [1e-3], [10])


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1e-3])
def test_non_finite_or_non_positive_dt_rejected(dt):
    with pytest.raises(ValueError, match="0 < dt < inf"):
        _checked(stack(smooth_field()), 3, [dt], [10])
    with pytest.raises(ValueError, match="0 < dt < inf"):
        _checked(stack(smooth_field(), smooth_field()), 3, [1e-3, dt], [10, 10])


@pytest.mark.parametrize("steps", [[10, 0], [10, 2.5], [2.5, 2.5]])
def test_batch_needs_whole_steps_for_every_member(steps):
    with pytest.raises(ValueError, match="whole steps >= 1"):
        _checked(stack(smooth_field(), smooth_field()), 3, [1e-3, 1e-3], steps)


def test_unstable_step_rejected():
    big = np.full(32, 100.0)
    with pytest.raises(ValueError):
        _checked(stack(big), 3, [1e-3], [10])


@pytest.mark.parametrize(
    "peak,n,dt,steps",
    [
        (1e100, 5, 1e-3, 1),  # max|u|^(n-1) itself overflows
        (1e62, 5, 1e-250, 3),  # a stable-looking step whose u^n overflows to NaN rows
    ],
)
def test_data_whose_power_overflows_are_refused(peak, n, dt, steps):
    message = f"max|u|^n overflows a double: max|u| = {peak:.3g}, n = {n}"
    with pytest.raises(ValueError) as info:
        _checked(stack(np.full(16, peak)), n, [dt], [steps])
    assert str(info.value) == message
    with pytest.raises(ValueError, match=r"max\|u\|\^n overflows"):
        _checked(stack(smooth_field(16), np.full(16, -peak)), n, [dt, dt], [steps, steps])


def test_negation_is_a_symmetry_of_the_odd_flow():
    """With an odd power, u -> -u maps solutions to solutions, so the
    discrete flow must commute with negation exactly.  What negation can
    never do here is flip the damping into growth; that distinction is
    what the quadratic divergence-form equations lack."""
    x = grid(128)
    asym = np.sin(x) + 0.3 * np.cos(3 * x) ** 2
    fwd, neg = damped_heat_batch_oracle([asym, -asym], 3, 1e-3, 200)
    # exact up to FFT roundoff (the library's kernels are not sign-bitwise)
    assert np.allclose(neg[-1], -fwd[-1], atol=1e-13)


def test_damping_cannot_be_flipped_by_negation():
    """One explicit anti-damped step differs from the damped step on every
    sign of the data: the nonlinearity's sign survives u -> -u."""
    u = smooth_field(128)
    dt = 1e-3
    damped = u - dt * u**3
    anti = u + dt * u**3
    assert np.max(np.abs(damped - anti)) > 1e-4
    neg_damped = -u - dt * (-u) ** 3
    assert np.array_equal(neg_damped, -damped)  # negation reproduces damping, never growth


def test_blowup_guard():
    # data already beyond the runaway limit passes the step-size guard
    # with a tiny dt but trips the in-flight check immediately
    u = np.full(16, 2.0e6)
    with pytest.raises(BlowupError):
        damped_heat_batch_oracle([u], 3, 1.0e-14, 3)
    with pytest.raises(BlowupError):
        next(_march(u[None], 3, [1.0e-14], [3]))


# ---------------------------------------------------------------------------
# weak formulation


def make_psi(T=1.0):
    def tf(t):
        return (1.0 - t / T) ** 3

    def tfd(t):
        return -3.0 * (1.0 - t / T) ** 2 / T

    return SmoothTestFunction(
        value=lambda t, X: tf(t) * (np.cos(X[0]) + 0.5),
        dt=lambda t, X: tfd(t) * (np.cos(X[0]) + 0.5),
        laplacian=lambda t, X: tf(t) * (-np.cos(X[0])),
    )


def test_weak_residual_first_order_in_dt():
    psi = make_psi()
    u0 = smooth_field()
    res = []
    for dt in (4e-3, 2e-3, 1e-3):
        (traj,) = damped_heat_batch_oracle([u0], 3, dt, round(1.0 / dt))
        res.append(weak_residual(traj, dt, 3, psi))
    assert res[0] > res[1] > res[2]
    assert res[0] / res[2] > 3.0  # about 4 for a first-order method


def test_weak_residual_zero_test_function():
    zero = SmoothTestFunction(
        value=lambda t, X: np.zeros_like(X[0]),
        dt=lambda t, X: np.zeros_like(X[0]),
        laplacian=lambda t, X: np.zeros_like(X[0]),
    )
    (traj,) = damped_heat_batch_oracle([smooth_field(64)], 3, 1e-3, 100)
    assert weak_residual(traj, 1e-3, 3, zero) == 0.0


def test_weak_residual_rejects_nonsolutions():
    psi = make_psi()
    u0 = smooth_field()
    frozen = np.stack([u0] * 1001)
    assert weak_residual(frozen, 1e-3, 3, psi) > 0.1


# ---------------------------------------------------------------------------
# window averages


def constant_series(c=2.0, length=10, n=8):
    return np.full((length, n), c)


def test_steklov_constant_ramp():
    avg = steklov_average(constant_series(), 4)
    got = [row[0] for row in avg[:6]]
    assert got == [0.0, 0.5, 1.0, 1.5, 2.0, 2.0]


def test_steklov_contraction_random_series():
    rng = np.random.default_rng(5)
    for _ in range(20):
        vals = rng.standard_normal((40, 16))
        for q in (1, 2, 3):
            for r in (1, 3, 7):
                avg = steklov_average(vals, r)
                lhs = sum(lq_norm(row, q) ** q for row in avg)
                rhs = sum(lq_norm(row, q) ** q for row in vals)
                assert lhs <= rhs + 1e-12


def test_steklov_error_monotone_in_window():
    dt = 0.01
    times = np.arange(200) * dt
    x = grid(16)
    series = np.stack([np.sin(x) * math.cos(t) for t in times])
    errors = []
    for r in (1, 2, 4, 8):
        avg = steklov_average(series, r)
        errors.append(max(np.max(np.abs(a - b)) for a, b in zip(avg[20:], series[20:])))
    assert errors == sorted(errors)


def test_steklov_discrete_time_derivative():
    rng = np.random.default_rng(8)
    vals = rng.standard_normal((30, 8))
    dt = 0.1
    r = 4
    avg = steklov_average(vals, r)
    ext = lambda i: vals[i] if i >= 0 else np.zeros(8)
    for i in range(5, 25):
        lhs = (avg[i + 1] - avg[i]) / dt
        rhs = (ext(i) - ext(i - r)) / (r * dt)
        assert np.allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# factorization algebra


def test_gap_reference_points():
    assert proof_inequality_gap(1.0, -1.0, 3) == 0.0
    assert proof_inequality_gap(1.0, 1.0, 3) == 2.0


@given(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.sampled_from([3, 5, 7, 9]),
)
@settings(max_examples=400)
def test_gap_nonnegative_property(a, b, n):
    scale = max(abs(a), abs(b), 1.0) ** (n - 1)
    assert proof_inequality_gap(a, b, n) >= -1e-9 * scale


@given(
    st.fractions(min_value=-6, max_value=6, max_denominator=10),
    st.fractions(min_value=-6, max_value=6, max_denominator=10),
)
def test_gap_exact_identity_cubic(a, b):
    assert proof_inequality_gap_exact(a, b, 3) == (a + b) ** 2 / 2


@given(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.sampled_from([5, 7]),
)
@settings(max_examples=200)
def test_gap_exact_nonnegative_higher_powers(a, b, n):
    assert proof_inequality_gap_exact(a, b, n) >= 0


# every odd power that `verify inequality --n` accepts
CLI_POWERS = range(3, 306, 2)


def test_pairing_certificate_holds_at_every_cli_power():
    """2 G_n = (a + b)^2 times a sum of squares, as integer polynomials:
    so G_n >= 0 for every real pair, with equality only at a = -b."""
    for n in CLI_POWERS:
        left, right = pairing_certificate_sides(n)
        assert left == right, n


rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


@given(rationals, rationals, st.sampled_from(CLI_POWERS))
def test_gap_exact_equals_the_certificate(a, b, n):
    assert proof_inequality_gap_exact(a, b, n) == pairing_gap_factored(a, b, n)


@given(st.integers(-64, 64), st.integers(-64, 64), st.sampled_from(CLI_POWERS))
def test_gap_tracks_the_certificate_in_floats(i, j, n):
    """At multiples of 1/16 in [-4, 4], which floats hold exactly, the
    float gap stays within roundoff of the certificate's exact value: n
    roundings, each relative to a sum of n terms of size at most scale."""
    a, b = i / 16, j / 16
    exact = pairing_gap_factored(Fraction(i, 16), Fraction(j, 16), n)
    scale = max(abs(a), abs(b), 1.0) ** (n - 1)
    assert abs(Fraction(proof_inequality_gap(a, b, n)) - exact) <= 2 * n * n * 2.0**-52 * scale


def test_power_difference_identity():
    a = smooth_field(128)
    b = np.roll(a, 7) * 0.9
    assert power_difference_residual(a, a, 3) == 0.0
    scale = max(lq_norm(a, math.inf), lq_norm(b, math.inf))
    assert power_difference_residual(a, b, 3) < 1e-10 * scale**3
    assert power_difference_residual(a, b, 9) < 1e-8 * scale**9


# ---------------------------------------------------------------------------
# contraction experiments


def test_l1_distance_contracts():
    x = grid(128)
    u1 = np.sin(x)
    u2 = 0.5 * np.cos(2 * x) + 0.1
    t1, t2 = damped_heat_batch_oracle([u1, u2], 3, 1e-3, 500)
    curve = l1_contraction_curve(t1, t2)
    assert np.all(np.diff(curve) <= 1e-8)


def test_l1_curve_against_zero_solution():
    x = grid(128)
    pos = 0.6 + 0.5 * np.sin(x)
    (traj,) = damped_heat_batch_oracle([pos], 3, 1e-3, 300)
    zero = np.zeros((len(traj), 128))
    curve = l1_contraction_curve(traj, zero)
    assert np.all(np.diff(curve) <= 1e-12)
    assert curve[-1] < curve[0]


def test_mesh_refinement_convergence():
    u0 = smooth_field()
    coarse, fine = damped_heat_batch_oracle([u0, u0], 3, [2e-4, 1e-4], [2500, 5000])
    diff = l1_contraction_curve(coarse, subsample(fine, 2))
    assert np.max(diff) < 1e-4


def test_l1_curve_shape_mismatch():
    (t1,) = damped_heat_batch_oracle([smooth_field(64)], 3, 1e-3, 10)
    (t2,) = damped_heat_batch_oracle([smooth_field(128)], 3, 1e-3, 10)
    with pytest.raises(ValueError):
        l1_contraction_curve(t1, t2)
