"""Named verification suites behind the `verify` command.

Each suite runs a batch of checks with explicit tolerances and returns a
serializable summary; nothing here depends on wall-clock or filesystem
state, so a fixed seed reproduces every number exactly.  The runners
take keywords and no defaults: those, and each value's own checks, are in
the suite tables of `spdecrit.cli`; a runner's `InputError` names its flags.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List

import numpy as np

from .errors import InputError, check_budget
from .lab import fields as lf
from .lab import heat as lh
from .lab import noise as ln


def _plain(value):
    """A check value as plain Python floats, in lists and dicts."""
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return float(value)


def _check(name: str, passed: bool, value=None, target: str = "") -> Dict:
    entry = {"name": name, "passed": bool(passed)}
    if value is not None:
        entry["value"] = _plain(value)
    if target:
        entry["target"] = target
    return entry


def _finish(suite: str, checks: List[Dict]) -> Dict:
    return {"suite": suite, "checks": checks, "passed": all(c["passed"] for c in checks)}


def _spawn(seed: int, count: int):
    return np.random.SeedSequence(seed).spawn(count)


# ---------------------------------------------------------------------------


# samples per block of the inequality sweep
_INEQUALITY_BLOCK = 1 << 15
# sample pairs over all powers: 25 times the default sweep of 4 powers x
# 1,000,000 samples, which takes ~0.2 s of draws and gaps
_INEQUALITY_BUDGET = 100_000_000
# the powers of the default sweep: phi4's degrees under --param n
_POWERS = (3, 5, 7, 9)


def run_inequality(*, n, samples: int, seed: int) -> Dict:
    """Random sweep plus the exact closed form of the pairing inequality;
    n None sweeps the powers 3, 5, 7 and 9."""
    if n is not None and math.log10(n) + n - 1 > math.log10(np.finfo(float).max):
        raise InputError(f"--n {n}: samples in [-10, 10] take the gap to n * 10^(n-1), past a double; use n <= 305")
    powers = (n,) if n is not None else _POWERS
    pairs = len(powers) * samples
    check_budget(f"--samples {samples}", pairs, _INEQUALITY_BUDGET,
                 f"the sweep draws {pairs} sample pairs, {len(powers)} x {samples}")
    checks = []
    for i, p in enumerate(powers):
        # a and b go on with default_rng(seed)'s stream from outputs
        # 2i * samples and (2i + 1) * samples; uniform takes one output per
        # double, so drawing them block by block keeps every value
        a_rng, b_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        a_rng.bit_generator.advance(2 * i * samples)
        b_rng.bit_generator.advance((2 * i + 1) * samples)
        # a min is exact, so the min over blocks is the min over the whole array
        least, worst = math.inf, math.inf
        for first in range(0, samples, _INEQUALITY_BLOCK):
            size = min(_INEQUALITY_BLOCK, samples - first)
            a, b = a_rng.uniform(-10.0, 10.0, size=size), b_rng.uniform(-10.0, 10.0, size=size)
            gap = lh.proof_inequality_gap(a, b, p)
            scale = lh._power(np.maximum(np.abs(a), np.abs(b)), p - 1)
            least = min(least, float(np.min(gap)))
            worst = min(worst, float(np.min(gap + 1.0e-9 * scale)))
        checks.append(
            _check(
                f"gap nonnegative (n={p}, {samples} samples)",
                worst >= 0.0,
                value=least,
                target=">= -1e-9 * max(|a|,|b|)^(n-1)",
            )
        )
    # n = 3: gap is exactly (a+b)^2 / 2 at rational points
    exact_ok = True
    rng2 = np.random.default_rng(seed + 1)
    for _ in range(100):
        a = Fraction(int(rng2.integers(-50, 51)), int(rng2.integers(1, 13)))
        b = Fraction(int(rng2.integers(-50, 51)), int(rng2.integers(1, 13)))
        if lh.proof_inequality_gap_exact(a, b, 3) != (a + b) ** 2 / 2:
            exact_ok = False
            break
    checks.append(_check("n=3 gap equals (a+b)^2/2 on 100 rational points", exact_ok, target="exact"))
    return _finish("inequality", checks)


def _smooth_data(grid: int, kind: int = 0) -> np.ndarray:
    x = np.arange(grid) * (2.0 * math.pi / grid)
    if kind == 0:
        return np.sin(x) + 0.5 * np.cos(2 * x)
    if kind == 1:
        return 0.8 * np.cos(x) - 0.3 * np.sin(3 * x) + 0.2
    return 0.6 + 0.5 * np.sin(x)  # strictly positive


# steps of the longest march, the dt/2 run: 25 times the default's 2 x 10,000
_UNIQUENESS_BUDGET = 500_000
# grid points of the rows the ring, the march's block and its stack keep:
# 25 times the default's 5,893 rows of 256 points (12 MB)
_UNIQUENESS_POINTS_BUDGET = 25 * 5_893 * 256


def run_uniqueness(*, n: int, dim: int, grid: int, tmax: float, dt: float) -> Dict:
    """Mesh convergence and integral-norm contraction for the damped flow on dim 1."""
    # on the float quotient, so a step count past a double is refused too
    fine_steps = 2 * tmax / dt
    check_budget(f"--tmax {tmax!r} --dt {dt!r}", fine_steps, _UNIQUENESS_BUDGET,
                 f"the dt/2 run marches {fine_steps:g} steps")
    steps = round(tmax / dt)
    # the ring's rows (see below), the march's block of five runs and their data
    ring_rows = lh._BLOCK * (steps // (2 * lh._BLOCK) + 2)
    kept = ring_rows + 5 * min(lh._BLOCK, 2 * steps + 1) + 5
    check_budget(f"--grid {grid} --tmax {tmax!r} --dt {dt!r}", kept * grid, _UNIQUENESS_POINTS_BUDGET,
                 f"the march keeps {kept} rows of {grid} points")
    # the contraction checks march at a coarser step of their own
    dt_b = max(dt, 1.0e-3)
    steps_b = round(tmax / dt_b)
    if steps_b < 1:  # dt_b >= dt, so steps >= steps_b
        raise InputError(f"--tmax {tmax!r} --dt {dt!r}: tmax={tmax!r} is shorter than one step of {dt_b!r}")
    # five runs march as one stack: the same data at dt and at dt/2, and
    # three contraction runs at the coarser step
    data = np.stack([_smooth_data(grid, k) for k in (0, 0, 0, 1, 2)])
    dts, counts = [dt, dt / 2.0, dt_b, dt_b, dt_b], [steps, 2 * steps, steps_b, steps_b, steps_b]
    try:  # the step-size guard, on the data's peak
        lh._checked(data, n, dts, counts)
    except ValueError as exc:
        raise InputError(f"--n {n} --dt {dt!r}: {exc}") from None
    # only the dt run's rows that the dt/2 run has not reached are kept,
    # those from step first // 2 on: at most half of them and a block, in
    # a ring of whole blocks, so no block's rows wrap; each block reduces
    # the dt/2 run's even steps against them and the contraction runs to
    # their curves
    ring = np.empty((ring_rows, grid))
    diff = np.empty(steps + 1)
    curve = np.empty(steps_b + 1)
    curve0 = np.empty(steps_b + 1)
    dv = 2.0 * math.pi / grid
    order = (1, 0, 2, 3, 4)  # the march takes the longest run first
    for first, rows in lh._march(data[list(order)], n, [dts[i] for i in order], [counts[i] for i in order]):
        size = min(len(rows), steps + 1 - first)
        if size > 0:
            at = first % len(ring)
            ring[at : at + size] = rows[:size, 1]
        # a block starts at an even step (_BLOCK is even), so its even
        # rows are the dt/2 run at the dt run's steps k, k + 1, ...
        k = first // 2
        fine = rows[::2, 0]
        at = k % len(ring)
        diff[k : k + len(fine)] = lh._l1_rows(ring[at : at + len(fine)] - fine, dv)
        size = min(len(rows), steps_b + 1 - first)
        if size > 0:
            curve[first : first + size] = lh._l1_rows(rows[:size, 2] - rows[:size, 3], dv)
            # the distance to the zero solution
            curve0[first : first + size] = lh._l1_rows(rows[:size, 4].copy(), dv)
    checks = []
    worst = float(np.max(diff))
    # the method is first order: above the reference step the bound scales
    tol = 1.0e-4 * max(1.0, dt / 1.0e-4)
    checks.append(
        _check(
            "identical data: dt vs dt/2 trajectories stay together",
            worst < tol,
            value=worst,
            target=f"sup-over-time L1 < {tol:g}",
        )
    )

    growth = float(np.max(np.diff(curve)))
    checks.append(
        _check(
            "distinct data: L1 distance non-increasing",
            growth <= 1.0e-8,
            value=growth,
            target="per-step increase <= 1e-8",
        )
    )

    checks.append(
        _check(
            "zero is a solution: ||u(t)||_L1 decreases",
            bool(np.all(np.diff(curve0) <= 1.0e-12)),
            value=float(curve0[-1] / curve0[0]),
            target="monotone",
        )
    )
    return _finish("uniqueness", checks)


# random series of the contraction check: 25 times the default 100, which
# take ~0.08 s
_STEKLOV_BUDGET = 2_500


def run_steklov(*, seed: int, samples: int) -> Dict:
    """Window-average contraction and approximation quality."""
    check_budget(f"--samples {samples}", samples, _STEKLOV_BUDGET, f"the contraction check draws {samples} random series")
    checks = []
    length, grid, dt = 64, 16, 0.01
    qs = (1, 2, 3)
    contraction_ok = True
    worst_excess = 0.0
    for ss in _spawn(seed, samples):
        rng = np.random.default_rng(ss)
        vals = rng.standard_normal((length, grid))
        norms = {q: _lq_lq(vals, q, dt) for q in qs}
        for r in (1, 2, 5, 8):
            avg = lh.steklov_average(vals, r)
            for q in qs:
                excess = _lq_lq(avg, q, dt) - norms[q]
                worst_excess = max(worst_excess, excess)
                if excess > 1.0e-12:
                    contraction_ok = False
    checks.append(
        _check(
            f"contraction in q={qs} over {samples} random series",
            contraction_ok,
            value=worst_excess,
            target="||v_h||_q <= ||v||_q",
        )
    )

    # smooth series: approximation error shrinks monotonically with the window
    x = np.arange(grid) * (2.0 * math.pi / grid)
    times = np.arange(length) * dt
    profile = np.sin(x)
    smooth = np.stack([profile * math.cos(t) for t in times])
    errors = []
    for r in (1, 2, 4, 8, 16):
        avg = lh.steklov_average(smooth, r)
        start = 16  # compare past the zero-extension ramp
        err = float(np.max(np.abs(avg[start:] - smooth[start:])))
        errors.append(err)
    monotone = all(errors[i] <= errors[i + 1] + 1e-15 for i in range(len(errors) - 1))
    checks.append(
        _check(
            "approximation error monotone in the window size",
            monotone,
            value=errors,
            target="error(h) nondecreasing in h, h -> dt recovers v",
        )
    )
    return _finish("steklov", checks)


def _lq_lq(values: np.ndarray, q: int, dt: float) -> float:
    """The space-time L^q norm of values, (rows, *grid), rows dt apart."""
    dv = (2.0 * math.pi) ** (values.ndim - 1) / math.prod(values.shape[1:])
    powers = np.abs(values) ** q
    row_sums = np.sum(powers, axis=tuple(range(1, powers.ndim))) * dv * dt
    total = sum(row_sums.tolist())  # left to right over time, as a Python sum
    return total ** (1.0 / q)


# The largest tested form, --terms 400 at --alpha 2, needs 254,410
# coefficients (~0.1 s and ~50 MB to build); four times that takes
# ~0.6 s and ~180 MB at --alpha 2.
_TYCHONOV_TABLE_BUDGET = 1_000_000


def _tychonov_table_size(alpha: int, terms: int) -> int:
    """Coefficients of P_0..P_{terms+11}, every polynomial run_tychonov
    may build (the bound at K = terms + 10 reads P_{K+1}); P_k has
    k*(alpha + 1) + 1."""
    depth = terms + 11
    return depth + 1 + (alpha + 1) * depth * (depth + 1) // 2


def run_tychonov(*, alpha: int, terms: int, region) -> Dict:
    """Pointwise values, vanishing past, and the two-route residual check."""
    size = _tychonov_table_size(alpha, terms)
    check_budget(f"--alpha {alpha} --terms {terms}", size, _TYCHONOV_TABLE_BUDGET,
                 f"the derivative table needs {size} coefficients")
    from .lab import tychonov as lt  # the one suite that needs mpmath

    checks = []
    series = lt.TychonovSeries.build(alpha, terms + 2)

    try:
        center = lt.tychonov_eval(series, 1.0, 0.0, terms)
    except OverflowError:
        raise InputError(f"--terms {terms}: the series at --alpha {alpha} overflows a double") from None
    checks.append(
        _check(
            "value at (t,x)=(1,0) is exp(-1)",
            abs(center - math.exp(-1.0)) < 1.0e-12,
            value=center,
            target="|u - e^-1| < 1e-12",
        )
    )
    past_ok = all(lt.tychonov_eval(series, t, x, terms) == 0.0 for t in (-1.0, 0.0) for x in (0.0, 0.7))
    checks.append(_check("vanishes for t <= 0", past_ok, target="u = 0"))

    t0, t1, x0, x1 = region
    # Python floats: a numpy scalar would warn where a float series overflows
    t_grid = np.linspace(t0, t1, 5).tolist()
    x_grid = np.linspace(x0, x1, 5).tolist()
    # the float bounds first: one that overflows is an error before any mp work
    try:
        max_k = lt.tychonov_residual(series, terms, t_grid, x_grid)
        max_k10 = lt.tychonov_residual(series, terms + 10, t_grid, x_grid)
    except OverflowError:
        region_text = ",".join(map(repr, region))
        raise InputError(
            f"--alpha {alpha} --terms {terms} --region {region_text}: the residual bound overflows a double"
        ) from None

    points = [(t, x) for t in t_grid for x in x_grid]
    analytic = [lt.analytic_heat_residual_mp(series, terms, t, x) for t, x in points]
    scale = max(abs(v) for v in analytic)
    # the smaller the residual, the finer the stencil and the more digits
    delta, dps = lt.fd_step_and_precision(scale)
    fd = [lt.fd_heat_residual(series, terms, t, x, delta=delta, dps=dps) for t, x in points]
    worst = max(abs(a - b) for a, b in zip(analytic, fd))
    rel = float(worst / scale) if scale > 0 else 0.0
    checks.append(
        _check(
            f"analytic vs finite-difference residual at K={terms}",
            rel < 1.0e-6,
            value=rel,
            target="relative agreement < 1e-6",
        )
    )

    checks.append(
        _check(
            "ten more terms shrink the residual",
            max_k10 < max_k,
            value=[max_k, max_k10],
            target="max residual decreases",
        )
    )
    checks.append(
        _check(
            "residual vanishes on the axis for K >= 1",
            lt.tychonov_residual(series, terms, t_grid, [0.0]) == 0.0,
            target="x = 0 contributes x^(2K) = 0",
        )
    )
    return _finish("tychonov", checks)


# roughness members marched as one stack at a time; bounds its memory
_STACK = 16
# the time at which the roughness section reads z1
_ROUGH_T = 1.0
# member-points of the roughness fit, --ensembles x --grid: 25 times the
# default 16 x 4096, which take ~0.03 s
_NOISE_BUDGET = 25 * 16 * 4096
# the fitted exponent's window, about phi4's z1 bound at d = 1
_Z1_WINDOW = (0.35, 0.60)


# rows of normals the flat-spectrum check draws and packs at a time
_WHITE_ROWS = 1000


def _white_modes(seed: int, draws: int, points: int, modes) -> np.ndarray:
    """The columns modes of white_half_spectrum over default_rng(seed)'s
    (draws, points) normals, one row per mode; drawn and packed a chunk of
    draws at a time, so only the columns read are kept."""
    rng = np.random.default_rng(seed)
    out = np.empty((len(modes), draws), dtype=np.complex128)
    for first in range(0, draws, _WHITE_ROWS):
        x = rng.standard_normal((min(_WHITE_ROWS, draws - first), points))
        out[:, first : first + len(x)] = lf.white_half_spectrum(x, 1)[:, modes].T
    return out


def run_noise(*, seed: int, grid: int, ensembles: int) -> Dict:
    """Spectral statistics of the sampler and the first object's roughness."""
    points = ensembles * grid
    check_budget(f"--ensembles {ensembles} --grid {grid}", points, _NOISE_BUDGET,
                 f"the roughness fit solves {points} member-points, {ensembles} x {grid}")
    try:  # the roughness fit needs enough blocks; check before sampling
        lf.fit_window((grid,))
    except lf.ResolutionError as exc:
        raise InputError(f"--grid {grid}: {exc}") from None
    checks = []

    # flat spectrum: per-mode variance 1, distinct modes uncorrelated
    zero, five, nine = _white_modes(seed, 10_000, 64, (0, 5, 9))
    var_mode = float(np.mean(np.abs(five) ** 2))
    var_zero = float(np.var(zero.real))
    cross = float(np.abs(np.mean(five * np.conj(nine))))
    checks.append(
        _check("per-mode variance is 1", abs(var_mode - 1.0) < 0.05, value=var_mode, target="1 +- 5%")
    )
    checks.append(
        _check("zero mode is standard Gaussian", abs(var_zero - 1.0) < 0.05, value=var_zero, target="1 +- 5%")
    )
    checks.append(
        _check("distinct modes uncorrelated", cross < 0.05, value=cross, target="|cov| < 5%")
    )

    # stationary variance of the linear solve matches the closed form
    dt, steps, burn = 0.05, 2400, 400
    probe_modes = (2, 3, 4)
    est = {m: [] for m in probe_modes}
    seeds = [int(np.random.default_rng(ss).integers(0, 2**31)) for ss in _spawn(seed + 1, 8)]
    for spec in ln.solve_z1_mild_batch(1, (32,), dt, steps, seeds)[:, burn:]:
        for m in probe_modes:
            est[m].append(float(np.mean(np.abs(spec[:, m]) ** 2)))
    stationary_ok = True
    ratios = {}
    for m in probe_modes:
        target = 1.0 / (2.0 * m**2)
        ratio = float(np.mean(est[m]) / target)
        ratios[f"m={m}"] = ratio
        if abs(ratio - 1.0) > 0.10:
            stationary_ok = False
    checks.append(
        _check("stationary mode variance tracks 1/(2|m|^2)", stationary_ok, value=ratios, target="within 10%")
    )

    # roughness of the solved field in one dimension, read only at time
    # _ROUGH_T: exact OU steps compose, so one step of that length has the
    # law of any finer march to it and draws one field per member
    seeds = [int(np.random.default_rng(ss).integers(0, 2**31)) for ss in _spawn(seed + 2, ensembles)]
    exponents = []
    for first in range(0, ensembles, _STACK):
        coeffs = ln.solve_z1_mild_batch(1, (grid,), _ROUGH_T, 1, seeds[first : first + _STACK])
        exponents += [lf.estimate_holder_exponent(c) for c in coeffs[:, -1]]
    mean_exp = float(np.mean(exponents))
    low, high = _Z1_WINDOW
    checks.append(
        _check(
            f"fitted smoothness exponent over {ensembles} seeds",
            low <= mean_exp <= high,
            value=mean_exp,
            target=f"in [{low:.2f}, {high:.2f}]",
        )
    )

    # determinism under a fixed seed
    f1 = lf.values_of(ln.sample_spatial_white(1, (256,), seed=seed + 99))
    f2 = lf.values_of(ln.sample_spatial_white(1, (256,), seed=seed + 99))
    checks.append(
        _check("equal seeds give identical fields", bool(np.array_equal(f1, f2)), target="bitwise")
    )
    return _finish("noise", checks)


# (dim, shape, exponent of f, exponent of g) of the exactness cases,
# whose products are well defined, and the exponent of both resonant
# factors, whose product is not
_BONY_CASES = ((1, (256,), 1.5, 0.8), (2, (64, 64), 1.2, 1.0))
_RESONANT = -0.25


def run_bony(*, seed: int) -> Dict:
    """Paraproduct partition exactness and resonant blow-up."""
    checks = []

    worst_rel = 0.0
    for i, (dim, shape, ef, eg) in enumerate(_BONY_CASES):
        f = lf.synthetic_field(dim, shape, ef, seed + 10 + i)
        g = lf.synthetic_field(dim, shape, eg, seed + 20 + i)
        lo, hi, res = lf.bony_decompose(f, g)
        product = lf.values_of(f) * lf.values_of(g)
        err = float(np.max(np.abs(lo + hi + res - product)))
        scale = float(np.max(np.abs(product)))
        worst_rel = max(worst_rel, err / scale)
    checks.append(
        _check(
            "three parts rebuild the product",
            worst_rel < 1.0e-10,
            value=worst_rel,
            target="relative 1e-10",
        )
    )

    # resonance grows under refinement when the exponents sum below zero
    ratios = []
    for ss in _spawn(seed + 3, 4):
        s = int(np.random.default_rng(ss).integers(0, 2**31))
        norms = []
        for nres in (512, 2048):
            f = lf.synthetic_field(1, (nres,), _RESONANT, s)
            g = lf.synthetic_field(1, (nres,), _RESONANT, s + 1)
            _, _, res = lf.bony_decompose(f, g)
            norms.append(float(np.max(np.abs(res))))
        ratios.append(norms[1] / norms[0])
    mean_ratio = float(np.mean(ratios))
    checks.append(
        _check(
            "resonant part grows with resolution at exponent -1/4",
            mean_ratio > 1.2,
            value=mean_ratio,
            target="ratio > 1.2 between 512 and 2048",
        )
    )
    return _finish("bony", checks)
