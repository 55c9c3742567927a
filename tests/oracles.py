"""Slow or test-only routines that the tests use as oracles.

None of these is called by a command.  They read only public lab and
report data: a weak-form residual of a damped-heat trajectory, the
telescoped power difference, block sup norms, a difference-quotient
Hölder fit, the inverse of the report's JSON row encoding, the
expansion's gain recomputed from its rows, the exact-rational
recurrence of the Tychonov derivative polynomials, the whole-array form
of the inequality sweep, the float residual bound as it divided by
(2K)! before that could exceed a double, the damped flow's stacked
march one step at a time, the uniqueness suite as it stored every
trajectory before reducing it, the subsampling that suite used, the
exponent fit over every dyadic block at once, the noise solve's
batch as it drew a batch of steps per member, the affine arithmetic and
its rendering on Fractions, as `spdecrit.affine` kept them before it
held integers, the parser of that rendering, the L1 contraction curve
of two stored trajectories, the rescaling exponents and verdict in
closed form from the spec alone, with the condition on d for
exponents of any slope (the expansion assumes each falls with d), a
spec's canonical text form, which the round-trip tests parse back, a
document's JSON bytes without its timestamp, and `noise sample`'s
stride as it searched every divisor up to the square root of the
steps, whatever the row budget.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from spdecrit.affine import DimExpr, RegBound, as_fraction
from spdecrit.dsl import SpdeSpec
from spdecrit.errors import ExpansionError
from spdecrit.expansion import (
    CONDITION_ON_DIM,
    CRITICAL,
    SUBCRITICAL,
    SUPERCRITICAL,
    Classification,
    _require_valid,
    _scaling_info,
)
from spdecrit.lab import BlowupError, PeriodicField, ResolutionError, lp_fields
from spdecrit.lab import noise as ln
from spdecrit.lab.fields import fit_window, mode_magnitudes, white_half_spectrum
from spdecrit.lab.heat import BLOWUP_LIMIT, _l1_rows, _odd_check, _power, proof_inequality_gap
from spdecrit.rules import noise_regularity


@dataclass
class SmoothTestFunction:
    """Smooth space-time test function with its needed derivatives.

    Each callable receives (t, grids) where grids is the tuple of
    coordinate arrays, and returns field values on the grid.
    """

    value: Callable
    dt: Callable
    laplacian: Callable


def _grids(field: PeriodicField):
    axes = [np.arange(n) * (2.0 * math.pi / n) for n in field.grid_shape]
    return tuple(np.meshgrid(*axes, indexing="ij")) if field.dim > 1 else (axes[0],)


def weak_residual(values: np.ndarray, dt: float, n: int, psi: SmoothTestFunction) -> float:
    """Absolute defect of the time-integrated weak form against psi, of a
    trajectory of values (rows, *grid) at times 0, dt, 2 dt, ...

    psi must vanish at the final time of the trajectory (compact support
    in [0, T)); space integrals are exact for trigonometric data, time
    integrals use the trapezoid rule.
    """
    _odd_check(n)
    first = PeriodicField(values[0])
    X = _grids(first)
    dv = first.volume_element()
    times = np.arange(len(values)) * dt

    def space_int(a: np.ndarray) -> float:
        return float(np.sum(a) * dv)

    T = times[-1]
    psi_end = psi.value(T, X)
    if np.max(np.abs(psi_end)) > 1e-12:
        raise ValueError("test function must vanish at the trajectory's final time")

    boundary = space_int(values[-1] * psi_end)
    initial = space_int(values[0] * psi.value(0.0, X))

    integrand = []
    for t, u in zip(times, values):
        integrand.append(
            -space_int(u * psi.dt(t, X))
            + space_int(u**n * psi.value(t, X))
            - space_int(u * psi.laplacian(t, X))
        )
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    time_integral = float(trapezoid(np.array(integrand), times))
    return abs(boundary - initial + time_integral)


def power_difference_residual(u1: PeriodicField, u2: PeriodicField, n: int) -> float:
    """Max norm of u1^n - u2^n minus its telescoping factorization."""
    _odd_check(n)
    if u1.grid_shape != u2.grid_shape:
        raise ValueError("fields must share a grid")
    a, b = u1.values, u2.values
    w = a - b
    series = np.zeros_like(a)
    for l in range(n):
        series += a ** (n - 1 - l) * b**l
    return float(np.max(np.abs(a**n - b**n - w * series)))


def littlewood_paley_blocks(f: PeriodicField) -> List[Tuple[int, float]]:
    """(block index, sup norm of the block) for every resolved block."""
    return [(j, g.lq_norm(math.inf)) for j, g in lp_fields(f)]


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


@dataclass(frozen=True)
class FractionDimExpr:
    """Affine value c0 + cd*d with Fraction coefficients: `affine.DimExpr`
    as it was before it held integers."""

    c0: Fraction
    cd: Fraction = Fraction(0)

    def evaluate(self, d) -> Fraction:
        d = as_fraction(d)
        return self.c0 + self.cd * d if self.cd else self.c0

    def __add__(self, other) -> "FractionDimExpr":
        other = _coerce_oracle(other)
        return FractionDimExpr(self.c0 + other.c0, self.cd + other.cd)

    __radd__ = __add__

    def __sub__(self, other) -> "FractionDimExpr":
        other = _coerce_oracle(other)
        return FractionDimExpr(self.c0 - other.c0, self.cd - other.cd)

    def __rsub__(self, other) -> "FractionDimExpr":
        return _coerce_oracle(other) - self

    def __mul__(self, scalar) -> "FractionDimExpr":
        s = as_fraction(scalar)
        return FractionDimExpr(self.c0 * s, self.cd * s)

    __rmul__ = __mul__

    def __neg__(self) -> "FractionDimExpr":
        return FractionDimExpr(-self.c0, -self.cd)


def _coerce_oracle(x) -> FractionDimExpr:
    return x if isinstance(x, FractionDimExpr) else FractionDimExpr(as_fraction(x))


def format_affine_oracle(e) -> str:
    """`affine.format_affine` as it rendered from Fractions."""
    if e.cd == 0:
        return str(e.c0)
    p, q = abs(e.cd.numerator), e.cd.denominator
    if p == 1 and q == 1:
        mag = "d"
    elif q == 1:
        mag = f"{p}d"
    elif p == 1:
        mag = f"d/{q}"
    else:
        mag = f"{p}d/{q}"
    sign = "-" if e.cd < 0 else "+"
    if e.c0 == 0:
        return mag if sign == "+" else f"-{mag}"
    return f"{e.c0} {sign} {mag}"


def parse_affine(text: str) -> DimExpr:
    """Inverse of format_affine (whitespace-insensitive)."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty affine expression")
    # split into signed terms
    terms = []
    i = 0
    start = 0
    for i in range(1, len(s)):
        if s[i] in "+-" and s[i - 1] not in "+-/":
            terms.append(s[start:i])
            start = i
    terms.append(s[start:])
    c0 = Fraction(0)
    cd = Fraction(0)
    for term in terms:
        sign = Fraction(1)
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if "d" in term:
            head, _, tail = term.partition("d")
            coeff = Fraction(head) if head else Fraction(1)
            if tail:
                if not tail.startswith("/"):
                    raise ValueError(f"bad affine term in {text!r}")
                coeff /= Fraction(tail[1:])
            cd += sign * coeff
        else:
            c0 += sign * Fraction(term)
    return DimExpr(c0, cd)


def affine_from_json(obj: Optional[dict]) -> Optional[DimExpr]:
    if obj is None:
        return None
    return DimExpr(Fraction(obj["c0"]), Fraction(obj["cd"]))


def rows_from_payload(payload: dict) -> List[Tuple[int, RegBound, RegBound, Optional[RegBound]]]:
    """Reconstruct the typed row bounds from a serialized payload."""
    out = []
    for row in payload["rows"]:
        rem = affine_from_json(row["remainder"])
        out.append(
            (
                row["level"],
                RegBound(affine_from_json(row["forcing"])),
                RegBound(affine_from_json(row["object"])),
                RegBound(rem) if rem is not None else None,
            )
        )
    return out


def gain_of_rows(rows) -> Tuple[Optional[DimExpr], Optional[str]]:
    """The gain and gain error of a report with these expansion rows: the
    common difference of consecutive object bounds, found from the rows
    alone rather than while the expansion builds them."""
    if len(rows) < 2:
        return None, "E_TOO_FEW_ROWS"
    diffs = [rows[i + 1].object_bound.sup - rows[i].object_bound.sup for i in range(len(rows) - 1)]
    if any(d != diffs[0] for d in diffs[1:]):
        return None, "E_NONCONSTANT_GAIN"
    return diffs[0], None


def closed_form_exponents(spec: SpdeSpec) -> Tuple[DimExpr, ...]:
    """Per nonlinear term, the rescaling exponent from the spec alone:
    (degree - 1) copies of the first object's bound r1, less every
    derivative the term carries, plus the diffusion order regained per
    level.  r1 is the noise bound plus the first solve's order."""
    noise = noise_regularity(spec.noise_kind, _scaling_info(spec), spec.noise_lift)
    r1 = noise.sup + DimExpr.const(spec.z1_effective_order)
    gamma = DimExpr.const(spec.diffusion_order)
    return tuple(
        r1 * (t.degree - 1) - DimExpr.const(sum(t.inner_derivative_orders, t.outer_derivative_order)) + gamma
        for t in spec.nonlinear_terms
    )


def closed_form_exponent(spec: SpdeSpec) -> DimExpr:
    """The single rescaling exponent of a valid spec; ExpansionError
    E_MULTI_TERM when the terms disagree."""
    _require_valid(spec)
    exps = closed_form_exponents(spec)
    if any(e != exps[0] for e in exps[1:]):
        raise ExpansionError("E_MULTI_TERM", "nonlinear terms have different homogeneities")
    return exps[0]


def subcritical_condition(exps: Sequence[DimExpr]) -> Optional[str]:
    """Intersection of {e_i(d) > 0} as a condition on d, or None if empty,
    for exponents of any slope."""
    lower: Optional[Fraction] = None
    upper: Optional[Fraction] = None
    for e in exps:
        if e.cd == 0:
            if e.c0 <= 0:
                return None
            continue
        threshold = -e.c0 / e.cd
        if e.cd < 0:
            upper = threshold if upper is None else min(upper, threshold)
        else:
            lower = threshold if lower is None else max(lower, threshold)
    if lower is not None and upper is not None:
        if lower >= upper:
            return None
        return f"{lower} < d < {upper}"
    if upper is not None:
        return f"d < {upper}"
    if lower is not None:
        return f"d > {lower}"
    return "all d"


def closed_form_classification(spec: SpdeSpec, dim: Optional[int]) -> Classification:
    """The verdict at dim from the least closed-form exponent's value; at
    symbolic d with a slope, the condition on d under which every
    exponent is positive."""
    _require_valid(spec)
    exps = closed_form_exponents(spec)
    if dim is not None or all(e.cd == 0 for e in exps):
        worst = min(e.evaluate(dim or 0) for e in exps)
        return Classification(SUBCRITICAL if worst > 0 else CRITICAL if worst == 0 else SUPERCRITICAL)
    return Classification(CONDITION_ON_DIM, subcritical_condition(exps) or "never subcritical")


def format_spec(spec: SpdeSpec) -> str:
    """Canonical text form; parse_spec(format_spec(s)) == s for valid specs."""
    lines = [f"equation {spec.name} {{"]
    if spec.dim is None:
        lines.append(f"  dimension {spec.dim_symbol};")
    else:
        lines.append(f"  dimension {spec.dim};")
    lines.append(f"  unknown {spec.unknown}: {spec.unknown_rank};")
    lines.append(f"  diffusion order {spec.diffusion_order};")
    if spec.z1_diffusion_order is not None:
        lines.append(f"  aux_z1 order {spec.z1_diffusion_order};")
    if spec.noise_lift:
        lines.append(f"  noise {spec.noise_kind} lift {spec.noise_lift};")
    else:
        lines.append(f"  noise {spec.noise_kind};")
    for term in spec.nonlinear_terms:
        lines.append("  nonlinear {")
        lines.append(f"    degree {term.degree};")
        if any(term.inner_derivative_orders):
            inner = ", ".join(str(k) for k in term.inner_derivative_orders)
            lines.append(f"    inner_deriv {inner};")
        if term.outer_derivative_order:
            lines.append(f"    outer_deriv {term.outer_derivative_order};")
        if term.projector:
            lines.append(f"    projector {term.projector};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def deterministic_bytes(doc: dict) -> bytes:
    """A JSON document without its timestamp, as compact sorted JSON: the
    bytes the reproducibility checks and golden digests compare."""
    trimmed = {k: v for k, v in doc.items() if k != "timestamp"}
    return json.dumps(trimmed, sort_keys=True).encode()


def tychonov_poly_table_oracle(alpha: int, depth: int) -> List[Tuple[Fraction, ...]]:
    """P_0..P_depth from P_{k+1} = -s^2 P_k' + alpha s^(alpha+1) P_k in Fractions,
    coefficient of s^i at index i, as the lab built them before its table
    held integers."""

    def add(p, q):
        n = max(len(p), len(q))
        p = tuple(p) + (Fraction(0),) * (n - len(p))
        q = tuple(q) + (Fraction(0),) * (n - len(q))
        return tuple(a + b for a, b in zip(p, q))

    table = [(Fraction(1),)]
    while len(table) <= depth:
        p = table[-1]
        derivative = tuple(c * i for i, c in enumerate(p))[1:] or (Fraction(0),)
        table.append(
            add(
                tuple(-c for c in (Fraction(0),) * 2 + derivative),
                tuple(Fraction(alpha) * c for c in (Fraction(0),) * (alpha + 1) + p),
            )
        )
    return table


def inequality_sweep_oracle(powers, samples: int, seed: int) -> List[Tuple[float, bool]]:
    """(min gap, passed) per power of the inequality sweep, each over the
    whole sample array at once, with the suite's draws."""
    rng = np.random.default_rng(seed)
    out = []
    for p in powers:
        a = rng.uniform(-10.0, 10.0, size=samples)
        b = rng.uniform(-10.0, 10.0, size=samples)
        gap = proof_inequality_gap(a, b, p)
        scale = _power(np.maximum(np.abs(a), np.abs(b)), p - 1)
        out.append((float(np.min(gap)), float(np.min(gap + 1.0e-9 * scale)) >= 0.0))
    return out


def tychonov_residual_float_oracle(series, K: int, t_values, x_values) -> float:
    """Max of |g^(K+1)(t)| |x|^(2K) / (2K)! with (2K)! divided as a double."""
    fact = math.factorial(2 * K)
    worst = 0.0
    for t in t_values:
        top = abs(series.g_derivative(K + 1, t))
        for x in x_values:
            worst = max(worst, top * abs(float(x)) ** (2 * K) / fact)
    return worst


def damped_heat_batch_oracle(u_ins: Sequence[PeriodicField], n: int, dt, steps) -> List[np.ndarray]:
    """The damped flow from 1D fields on one grid, each member's dt and
    steps one value for all or one per member, as a per-step march of the
    stacked members: new arrays every step, each member's row copied out
    as it is made, and the blow-up guard on the whole marching stack
    after every step.  Each member's rows are one (steps + 1, points)
    array of values at times 0, dt, ..."""
    _odd_check(n)
    count = len(u_ins)
    dts = [float(d) for d in np.broadcast_to(dt, (count,))]
    steps = np.broadcast_to(steps, (count,)).tolist()
    order = sorted(range(count), key=lambda i: -steps[i])
    shape = u_ins[0].grid_shape
    dt_rows = np.array([dts[i] for i in order]).reshape(count, 1)
    decay = np.exp(-(mode_magnitudes(shape) ** 2) * dt_rows).astype(np.complex128)
    rows = [np.empty((steps[i] + 1,) + shape) for i in order]
    values = np.stack([u_ins[i].values for i in order])
    for out, v in zip(rows, values):
        out[0] = v
    marching = count
    for k in range(steps[order[0]]):
        while steps[order[marching - 1]] <= k:
            marching -= 1
        values = values[:marching]
        damped = values - dt_rows[:marching] * _power(values, n)
        values = np.fft.irfft(decay[:marching] * np.fft.rfft(damped), n=shape[0])
        if np.abs(values).max() > BLOWUP_LIMIT:
            raise BlowupError(f"field exceeded {BLOWUP_LIMIT:g} at step {k + 1}")
        for out, v in zip(rows, values):
            out[k + 1] = v
    trajs = [None] * count
    for i, out in zip(order, rows):
        trajs[i] = out
    return trajs


def l1_contraction_curve(values1: np.ndarray, values2: np.ndarray) -> np.ndarray:
    """Integral norm of the difference at each shared time of two stored
    trajectories of values, (rows, *grid); the suites reduce block by
    block through the same `_l1_rows`."""
    if values1.shape[1:] != values2.shape[1:]:
        raise ValueError("trajectories live on different grids")
    if len(values1) != len(values2):
        raise ValueError("trajectories must share their time grid")
    return _l1_rows(values1 - values2, PeriodicField(values1[-1]).volume_element())


def subsample(values: np.ndarray, stride: int) -> np.ndarray:
    """Every stride-th row of a trajectory of values, keeping the
    endpoints aligned."""
    steps = len(values) - 1
    if stride < 1 or steps % stride != 0:
        raise ValueError(f"stride {stride} does not divide {steps} steps")
    return values[::stride]


def uniqueness_oracle(*, n: int, grid: int, tmax: float, dt: float) -> Dict:
    """run_uniqueness's result from its five stored trajectories: the
    stacked march, the dt/2 run subsampled to the dt run's times, and
    l1_contraction_curve for each check."""
    from spdecrit.suites import _check, _finish, _smooth_data

    steps = round(tmax / dt)
    dt_b = max(dt, 1.0e-3)
    steps_b = round(tmax / dt_b)
    coarse, fine, t1, t2, traj = damped_heat_batch_oracle(
        [PeriodicField(_smooth_data(grid, k)) for k in (0, 0, 0, 1, 2)],
        n,
        [dt, dt / 2.0, dt_b, dt_b, dt_b],
        [steps, 2 * steps, steps_b, steps_b, steps_b],
    )
    diff = l1_contraction_curve(coarse, subsample(fine, 2))
    worst = float(np.max(diff))
    tol = 1.0e-4 * max(1.0, dt / 1.0e-4)
    curve = l1_contraction_curve(t1, t2)
    growth = float(np.max(np.diff(curve)))
    zero = np.zeros_like(traj)
    curve0 = l1_contraction_curve(traj, zero)
    checks = [
        _check(
            "identical data: dt vs dt/2 trajectories stay together",
            worst < tol,
            value=worst,
            target=f"sup-over-time L1 < {tol:g}",
        ),
        _check(
            "distinct data: L1 distance non-increasing",
            growth <= 1.0e-8,
            value=growth,
            target="per-step increase <= 1e-8",
        ),
        _check(
            "zero is a solution: ||u(t)||_L1 decreases",
            bool(np.all(np.diff(curve0) <= 1.0e-12)),
            value=float(curve0[-1] / curve0[0]),
            target="monotone",
        ),
    ]
    return _finish("uniqueness", checks)


def holder_exponent_oracle(f: PeriodicField) -> float:
    """estimate_holder_exponent from every lp_fields block, built at once."""
    js_fit = fit_window(f.grid_shape)
    sups = [(j, g.lq_norm(math.inf)) for j, g in lp_fields(f) if j in js_fit]
    window = [(j, s) for j, s in sups if s > 0]
    if len(window) < 2:
        raise ResolutionError("exponent-fit window is empty at this resolution")
    js = np.array([j for j, _ in window], dtype=np.float64)
    ys = np.array([-math.log2(s) + 0.5 * math.log2(j * math.log(2)) for j, s in window])
    return float(np.polyfit(js, ys, 1)[0])


def z1_batch_per_member_oracle(dim: int, grid_shape, dt: float, steps: int, seeds) -> np.ndarray:
    """solve_z1_mild_batch's coefficients, (members, steps + 1, *half), with
    DRAW_BATCH_BYTES counted per member rather than over all of them."""
    grid_shape = tuple(grid_shape)
    decay, std = ln._ou_factors(dim, grid_shape, dt, steps)
    batch = max(1, ln.DRAW_BATCH_BYTES // (8 * math.prod(grid_shape)))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    coeffs = np.zeros((len(rngs), steps + 1) + decay.shape, dtype=np.complex128)
    for first in range(0, steps, batch):
        draws = (min(batch, steps - first),) + grid_shape
        x = np.stack([rng.standard_normal(draws) for rng in rngs], axis=1)
        for k, eta in enumerate(std * white_half_spectrum(x, len(grid_shape)), start=first):
            np.multiply(decay, coeffs[:, k], out=coeffs[:, k + 1])
            coeffs[:, k + 1] += eta
    return coeffs


def stride_oracle(steps: int) -> int:
    """The largest divisor of steps that is at most steps // 8, or 1, by
    two searches that each run up to isqrt(steps): O(sqrt(steps)) trials
    for a prime step count."""
    root = math.isqrt(steps)
    for q in range(8, root + 1):
        if steps % q == 0:
            return steps // q
    for d in range(min(root, steps // 8), 1, -1):
        if steps % d == 0:
            return d
    return 1
