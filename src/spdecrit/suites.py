"""Named verification suites behind the `verify` command.

Each suite runs a batch of checks with explicit tolerances and returns a
serializable summary; nothing here depends on wall-clock or filesystem
state, so a fixed seed reproduces every number exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from .lab import fields as lf
from .lab import heat as lh
from .lab import noise as ln
from .lab import tychonov as lt
from .report import SUITE_NAMES


def _check(name: str, passed: bool, value=None, target: str = "") -> Dict:
    entry = {"name": name, "passed": bool(passed)}
    if value is not None:
        entry["value"] = value
    if target:
        entry["target"] = target
    return entry


def _finish(suite: str, checks: List[Dict]) -> Dict:
    return {"suite": suite, "checks": checks, "passed": all(c["passed"] for c in checks)}


def _require_positive(**sizes):
    for name, value in sizes.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _spawn(seed: int, count: int):
    return np.random.SeedSequence(seed).spawn(count)


# ---------------------------------------------------------------------------


def run_inequality(n: Optional[int] = None, samples: int = 1_000_000, seed: int = 0) -> Dict:
    """Random sweep plus the exact closed form of the pairing inequality."""
    _require_positive(samples=samples)
    checks = []
    powers = (n,) if n is not None else (3, 5, 7, 9)
    rng = np.random.default_rng(seed)
    for p in powers:
        a = rng.uniform(-10.0, 10.0, size=samples)
        b = rng.uniform(-10.0, 10.0, size=samples)
        gap = lh.proof_inequality_gap(a, b, p)
        scale = np.maximum(np.abs(a), np.abs(b)) ** (p - 1)
        worst = float(np.min(gap + 1.0e-9 * scale))
        checks.append(
            _check(
                f"gap nonnegative (n={p}, {samples} samples)",
                worst >= 0.0,
                value=float(np.min(gap)),
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


def _smooth_data(grid: int, kind: int = 0) -> lf.PeriodicField:
    x = np.arange(grid) * (2.0 * math.pi / grid)
    if kind == 0:
        vals = np.sin(x) + 0.5 * np.cos(2 * x)
    elif kind == 1:
        vals = 0.8 * np.cos(x) - 0.3 * np.sin(3 * x) + 0.2
    else:
        vals = 0.6 + 0.5 * np.sin(x)  # strictly positive
    return lf.PeriodicField(vals)


def run_uniqueness(
    n: int = 3,
    dim: int = 1,
    grid: int = 256,
    tmax: float = 1.0,
    dt: float = 1.0e-4,
    seed: int = 0,
) -> Dict:
    """Mesh convergence and integral-norm contraction for the damped flow."""
    if dim != 1:
        raise ValueError("the uniqueness experiment runs on dim 1")
    _require_positive(tmax=tmax, dt=dt)
    steps = round(tmax / dt)
    # the contraction checks march at a coarser step of their own
    dt_b = max(dt, 1.0e-3)
    steps_b = round(tmax / dt_b)
    if steps_b < 1:  # dt_b >= dt, so steps >= steps_b
        raise ValueError(f"tmax={tmax!r} is shorter than one step of {dt_b!r}")
    checks = []

    u_in = _smooth_data(grid, 0)
    coarse = lh.solve_damped_heat(u_in, n, dt, steps)
    fine = lh.solve_damped_heat(u_in, n, dt / 2.0, 2 * steps)
    diff = lh.l1_contraction_curve(coarse, lh.subsample(fine, 2))
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

    t1 = lh.solve_damped_heat(_smooth_data(grid, 0), n, dt_b, steps_b)
    t2 = lh.solve_damped_heat(_smooth_data(grid, 1), n, dt_b, steps_b)
    curve = lh.l1_contraction_curve(t1, t2)
    growth = float(np.max(np.diff(curve)))
    checks.append(
        _check(
            "distinct data: L1 distance non-increasing",
            growth <= 1.0e-8,
            value=growth,
            target="per-step increase <= 1e-8",
        )
    )

    pos = _smooth_data(grid, 2)
    traj = lh.solve_damped_heat(pos, n, dt_b, steps_b)
    zero = lh.Trajectory(
        dt=dt_b,
        times=traj.times.copy(),
        fields=[lf.PeriodicField(np.zeros(pos.grid_shape)) for _ in traj.fields],
    )
    curve0 = lh.l1_contraction_curve(traj, zero)
    checks.append(
        _check(
            "zero is a solution: ||u(t)||_L1 decreases",
            bool(np.all(np.diff(curve0) <= 1.0e-12)),
            value=float(curve0[-1] / curve0[0]),
            target="monotone",
        )
    )
    return _finish("uniqueness", checks)


def run_steklov(seed: int = 0, series_count: int = 100, length: int = 64, grid: int = 16) -> Dict:
    """Window-average contraction and approximation quality."""
    _require_positive(samples=series_count)
    checks = []
    dt = 0.01
    qs = (1, 2, 3)
    contraction_ok = True
    worst_excess = 0.0
    for ss in _spawn(seed, series_count):
        rng = np.random.default_rng(ss)
        vals = rng.standard_normal((length, grid))
        series = lh.Trajectory(
            dt=dt,
            times=np.arange(length) * dt,
            fields=[lf.PeriodicField(v) for v in vals],
        )
        norms = {q: _lq_lq(series, q) for q in qs}
        for r in (1, 2, 5, 8):
            avg = lh.steklov_average(series, r * dt)
            for q in qs:
                excess = _lq_lq(avg, q) - norms[q]
                worst_excess = max(worst_excess, excess)
                if excess > 1.0e-12:
                    contraction_ok = False
    checks.append(
        _check(
            f"contraction in q={qs} over {series_count} random series",
            contraction_ok,
            value=worst_excess,
            target="||v_h||_q <= ||v||_q",
        )
    )

    # smooth series: approximation error shrinks monotonically with the window
    x = np.arange(grid) * (2.0 * math.pi / grid)
    times = np.arange(length) * dt
    smooth = lh.Trajectory(
        dt=dt,
        times=times,
        fields=[lf.PeriodicField(np.sin(x) * math.cos(t)) for t in times],
    )
    errors = []
    for r in (1, 2, 4, 8, 16):
        avg = lh.steklov_average(smooth, r * dt)
        start = 16  # compare past the zero-extension ramp
        err = max(
            float(np.max(np.abs(a.values - b.values)))
            for a, b in zip(avg.fields[start:], smooth.fields[start:])
        )
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


def _lq_lq(series, q: int) -> float:
    dv = series.fields[0].volume_element()
    total = sum(float(np.sum(np.abs(f.values) ** q)) * dv * series.dt for f in series.fields)
    return total ** (1.0 / q)


def run_tychonov(alpha: int = 2, terms: int = 30, region=(0.5, 1.0, -1.0, 1.0)) -> Dict:
    """Pointwise values, vanishing past, and the two-route residual check."""
    _require_positive(terms=terms)
    checks = []
    series = lt.TychonovSeries.build(alpha, terms + 2)

    center = lt.tychonov_eval(series, 1.0, 0.0, terms)
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
    t_grid = np.linspace(t0, t1, 5)
    x_grid = np.linspace(x0, x1, 5)
    analytic = []
    fd = []
    for t in t_grid:
        for x in x_grid:
            analytic.append(lt.analytic_heat_residual_mp(series, terms, t, x))
            fd.append(lt.fd_heat_residual(series, terms, t, x))
    scale = max(abs(v) for v in analytic)
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

    max_k = lt.tychonov_residual(series, terms, t_grid, x_grid)
    max_k10 = lt.tychonov_residual(series, terms + 10, t_grid, x_grid)
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


def run_noise(seed: int = 0, grid: int = 4096, ensembles: int = 16) -> Dict:
    """Spectral statistics of the sampler and the first object's roughness."""
    lf._check_shape(1, (grid,))
    _require_positive(ensembles=ensembles)
    checks = []

    # flat spectrum: per-mode variance 1, distinct modes uncorrelated
    draws = 10_000
    small = 64
    coeffs = np.empty((draws, small), dtype=np.complex128)
    for i, ss in enumerate(_spawn(seed, draws)):
        rng = np.random.default_rng(ss)
        coeffs[i] = ln._hermitian_gaussian(rng, (small,))
    var_mode = float(np.mean(np.abs(coeffs[:, 5]) ** 2))
    var_zero = float(np.var(coeffs[:, 0].real))
    cross = float(np.abs(np.mean(coeffs[:, 5] * np.conj(coeffs[:, 9]))))
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
    for ss in _spawn(seed + 1, 8):
        rng_seed = int(np.random.default_rng(ss).integers(0, 2**31))
        traj = ln.solve_z1_mild(1, (32,), dt, steps, rng_seed, diffusion_order=2.0)
        spec = np.stack([f.spectral for f in traj.fields[burn:]])
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

    # roughness of the solved field in one dimension
    exponents = []
    for ss in _spawn(seed + 2, ensembles):
        rng_seed = int(np.random.default_rng(ss).integers(0, 2**31))
        traj = ln.solve_z1_mild(1, (grid,), 2.5e-3, 400, rng_seed, diffusion_order=2.0)
        exponents.append(lf.estimate_holder_exponent(traj.final()))
    mean_exp = float(np.mean(exponents))
    checks.append(
        _check(
            f"fitted smoothness exponent over {ensembles} seeds",
            0.35 <= mean_exp <= 0.60,
            value=mean_exp,
            target="in [0.35, 0.60]",
        )
    )

    # determinism under a fixed seed
    f1 = ln.sample_spatial_white(1, (256,), seed=seed + 99)
    f2 = ln.sample_spatial_white(1, (256,), seed=seed + 99)
    checks.append(
        _check("equal seeds give identical fields", bool(np.array_equal(f1.values, f2.values)), target="bitwise")
    )
    return _finish("noise", checks)


def run_bony(seed: int = 0) -> Dict:
    """Paraproduct partition exactness and resonant blow-up."""
    checks = []

    worst_rel = 0.0
    cases = [(1, (256,), 1.5, 0.8), (2, (64, 64), 1.2, 1.0)]
    for i, (dim, shape, ef, eg) in enumerate(cases):
        f = lf.synthetic_field(dim, shape, ef, seed + 10 + i)
        g = lf.synthetic_field(dim, shape, eg, seed + 20 + i)
        lo, hi, res = lf.bony_decompose(f, g)
        product = f.values * g.values
        err = float(np.max(np.abs(lo.values + hi.values + res.values - product)))
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
            f = lf.synthetic_field(1, (nres,), -0.25, s)
            g = lf.synthetic_field(1, (nres,), -0.25, s + 1)
            _, _, res = lf.bony_decompose(f, g)
            norms.append(res.lq_norm(math.inf))
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


# suite -> (runner, {verify flag: runner keyword}) for the flags it reads
_SUITES = {
    "inequality": (run_inequality, {"n": "n", "samples": "samples", "seed": "seed"}),
    "uniqueness": (
        run_uniqueness,
        {"n": "n", "dim": "dim", "grid": "grid", "tmax": "tmax", "dt": "dt", "seed": "seed"},
    ),
    "steklov": (run_steklov, {"seed": "seed", "samples": "series_count"}),
    "tychonov": (run_tychonov, {"alpha": "alpha", "terms": "terms", "region": "region"}),
    "noise": (run_noise, {"seed": "seed", "grid": "grid", "ensembles": "ensembles"}),
    "bony": (run_bony, {"seed": "seed"}),
}


def run_suite(name: str, **kwargs) -> Dict:
    """Run a named suite; a flag that is None keeps the runner's default."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    runner, flags = _SUITES[name]
    return runner(**{key: kwargs[flag] for flag, key in flags.items() if kwargs.get(flag) is not None})
