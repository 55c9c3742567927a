"""Tree expansion of an equation spec into explicit stochastic objects.

Level 1 solves the linear equation against the noise.  Each further
level absorbs the most singular unabsorbed products of existing objects
into a new object, whose bound is that forcing homogeneity plus the
dissipative order.  Candidate products inside one nonlinear term are
ranked by total factor level, which agrees with ranking by homogeneity
whenever the per-step gain is positive and keeps the gain structurally
constant when it is not (so the closed-form exponent and the expansion
agree on either side of criticality).  Ties keep every attaining term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .affine import DimExpr, RegBound, ScalingInfo, from_ints
from .dsl import SpdeSpec, VECTOR, validate_spec
from .errors import ExpansionError
from .rules import (
    noise_regularity,
    product_analytic,
    product_homogeneity,
    schauder_gain,
    zero_order_operator,
)

MAX_LEVELS_LIMIT = 32
_ZERO = Fraction(0)

SUBCRITICAL = "Subcritical"
CRITICAL = "Critical"
SUPERCRITICAL = "Supercritical"
CONDITION_ON_DIM = "ConditionOnDim"


class ProductTerm(NamedTuple):
    """A formal product of objects, with derivative bookkeeping.

    factors are object labels in descending level order; inner
    derivative orders align with factors; the homogeneity already
    accounts for every derivative.
    """

    term_index: int
    factors: Tuple[str, ...]
    inner_orders: Tuple[Fraction, ...]
    outer_order: Fraction
    projector: Optional[str]
    factor_bounds: Tuple[RegBound, ...]
    homogeneity: RegBound

    def summands(self, vector_rank: bool) -> Tuple[str, ...]:
        """Display strings; a degree-2 pair of distinct vector factors
        is symmetrized into both orders."""
        parts = [_factor_str(f, k) if k else f for f, k in zip(self.factors, self.inner_orders)]
        if vector_rank and len(parts) == 2 and parts[0] != parts[1]:
            return ("*".join(parts), "*".join(reversed(parts)))
        return ("*".join(parts),)

    def render(self, vector_rank: bool) -> str:
        body = " + ".join(self.summands(vector_rank))
        return _wrap_outer(body, self.outer_order, vector_rank)


def _factor_str(label: str, order: Fraction) -> str:
    if order == 1:
        return f"D[{label}]"
    return f"D^{order}[{label}]"


def _wrap_outer(body: str, order: Fraction, vector_rank: bool) -> str:
    if not order:
        return body
    if order == 1 and vector_rank:
        return f"div({body})"
    if order == 1:
        return f"D({body})"
    return f"D^{order}({body})"


def render_forcing(terms: Sequence[ProductTerm], vector_rank: bool) -> str:
    if len(terms) == 1 and terms[0].factors == ("xi",):
        return "xi"
    summands: List[str] = []
    for t in terms:
        summands.extend(t.summands(vector_rank))
    outer = terms[0].outer_order if terms else Fraction(0)
    same_outer = all(t.outer_order == outer for t in terms)
    if same_outer:
        return _wrap_outer(" + ".join(summands), outer, vector_rank)
    return " + ".join(t.render(vector_rank) for t in terms)


class ExpansionRow(NamedTuple):
    level: int
    label: str
    forcing: Tuple[ProductTerm, ...]
    forcing_bound: RegBound
    object_bound: RegBound
    remainder_bound: Optional[RegBound] = None
    renorm: Tuple[str, ...] = ()


class Classification(NamedTuple):
    kind: str
    condition: Optional[str] = None

    def render(self) -> str:
        if self.kind == CONDITION_ON_DIM:
            return f"ConditionOnDim({self.condition})"
        return self.kind


class CriticalityReport(NamedTuple):
    spec: SpdeSpec
    dim: Optional[int]
    max_levels: int
    rows: Tuple[ExpansionRow, ...]
    candidates: Tuple[ProductTerm, ...]
    gain: Optional[DimExpr]
    gain_error: Optional[str]
    scaling_exponent: Optional[DimExpr]
    scaling_exponent_error: Optional[str]
    classification: Classification
    stopped_early: bool
    symbolic_stop: Optional[str] = None

    @property
    def vector_rank(self) -> bool:
        return self.spec.unknown_rank == VECTOR


# ---------------------------------------------------------------------------
# closed-form exponents and classification


def _scaling_info(spec: SpdeSpec) -> ScalingInfo:
    dim = DimExpr.dim() if spec.dim is None else DimExpr(spec.dim)
    return ScalingInfo(spec.scaling_time_order, dim)


def _solve(bound: RegBound, order: Fraction) -> RegBound:
    """Solve against a dissipative operator; one of order 0 gains nothing."""
    return schauder_gain(bound, order) if order else zero_order_operator(bound)


def _first_object(spec: SpdeSpec) -> Tuple[RegBound, RegBound]:
    """The noise bound and the bound of the first object solved against it."""
    noise = noise_regularity(spec.noise_kind, _scaling_info(spec), spec.noise_lift)
    return noise, _solve(noise, spec.z1_effective_order)


def noise_solved_bound(spec: SpdeSpec) -> RegBound:
    """Bound of the first object: noise bound plus the first solve order."""
    return _first_object(spec)[1]


def term_exponents(spec: SpdeSpec, r1: Optional[DimExpr] = None) -> Tuple[DimExpr, ...]:
    """Per-step regularity gain contributed by each nonlinear term.

    (degree - 1) copies of the first object, whose bound is `r1` (by
    default `noise_solved_bound(spec).sup`), minus every derivative the
    term carries, plus the dissipative order regained per level.
    """
    if r1 is None:
        r1 = noise_solved_bound(spec).sup
    gamma = DimExpr.const(spec.diffusion_order)
    return tuple(
        r1 * (t.degree - 1) - DimExpr.const(t.total_derivative_order) + gamma for t in spec.nonlinear_terms
    )


def scaling_exponent(spec: SpdeSpec) -> DimExpr:
    """The single rescaling exponent; positive means subcritical.

    Raises E_MULTI_TERM when nonlinear terms disagree (classification
    then falls back to the per-term minimum).
    """
    _require_valid(spec)
    return _common_exponent(term_exponents(spec))


def _common_exponent(exps: Sequence[DimExpr]) -> DimExpr:
    if not exps:
        raise ExpansionError("E_NO_NONLINEAR", "spec has no nonlinear terms")
    if any(e != exps[0] for e in exps[1:]):
        raise ExpansionError("E_MULTI_TERM", "nonlinear terms have different homogeneities")
    return exps[0]


def _subcritical_condition(exps: Sequence[DimExpr]) -> Optional[str]:
    """Intersection of {e_i(d) > 0} as a condition on d, or None if empty."""
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


def classify(spec: SpdeSpec, dim: Optional[int] = "from_spec") -> Classification:
    """Subcritical / Critical / Supercritical, or a condition on d.

    The binding constraint across several nonlinear terms is the
    smallest exponent.
    """
    _require_valid(spec)
    return _classify(term_exponents(spec), spec.dim if dim == "from_spec" else dim)


def _classify(exps: Sequence[DimExpr], dim: Optional[int]) -> Classification:
    if dim is not None or all(e.is_constant for e in exps):
        # the sign of the least value at d is the least sign of the
        # numerators; with dim None every slope is zero
        worst = min(_sign(e.p0 + e.pd * (dim or 0)) for e in exps)
        if worst > 0:
            return Classification(SUBCRITICAL)
        if worst == 0:
            return Classification(CRITICAL)
        return Classification(SUPERCRITICAL)
    condition = _subcritical_condition(exps)
    if condition is None:
        return Classification(CONDITION_ON_DIM, "never subcritical")
    return Classification(CONDITION_ON_DIM, condition)


def _require_valid(spec: SpdeSpec):
    problems = [d for d in validate_spec(spec) if d.severity == "error"]
    if problems:
        raise ExpansionError(problems[0].code, problems[0].message)


# ---------------------------------------------------------------------------
# the expansion proper


def _label(level: int) -> str:
    return f"z{level}"


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def _times(e: DimExpr, n: int) -> DimExpr:
    """e * n for an int n, from the integers."""
    return from_ints(e.p0 * n, e.pd * n, e.q)


def _compare(a: DimExpr, b: DimExpr) -> Optional[int]:
    """-1/0/+1 when decidable for every dimension, else None."""
    if a.pd * b.q != b.pd * a.q:
        return None
    return _sign(a.p0 * b.q - b.p0 * a.q)


# A candidate: its factor levels (nondecreasing) and the product they make.
_Entry = Tuple[Tuple[int, ...], ProductTerm]


def _minimum(entries: Sequence[_Entry]):
    """Scan for the least homogeneity against a running minimum.

    Returns the entries attaining it, in order, that homogeneity, and
    the first entry whose comparison with the running minimum depends
    on d (None when every comparison was decided; the scan stops there).
    Products that share their homogeneity object tie without arithmetic.
    """
    best: List[_Entry] = []
    best_h: Optional[DimExpr] = None
    for entry in entries:
        h = entry[1].homogeneity.sup
        if best_h is None:
            best, best_h = [entry], h
            continue
        if h is best_h:
            best.append(entry)
            continue
        cmp = _compare(h, best_h)
        if cmp is None:
            return best, best_h, entry
        if cmp < 0:
            best, best_h = [entry], h
        elif cmp == 0:
            best.append(entry)
    return best, best_h, None


def _tuples_with_sum(degree: int, top: int, total: int, low: int = 1, above: int = 0):
    """Nondecreasing tuples over low..top of the given length and sum
    whose last (largest) level exceeds `above`, in lexicographic order;
    while above < top, every branch taken yields at least one tuple."""
    if degree == 1:
        if max(low, above + 1) <= total <= top:
            yield (total,)
        return
    last = degree - 1
    for first in range(max(low, total - last * top), min(top, total // degree, (total - above - 1) // last) + 1):
        for rest in _tuples_with_sum(last, top, total - first, first, above):
            yield (first,) + rest


def analytic_status(candidate: ProductTerm, d: int) -> Optional[RegBound]:
    """Fold the two-factor analytic product across all factors at a
    concrete dimension; None marks an ill-defined product."""
    return _fold_analytic([RegBound(DimExpr.const(b.evaluate(d))) for b in candidate.factor_bounds], d)


def _fold_analytic(bounds: Sequence[RegBound], d: int) -> Optional[RegBound]:
    acc = bounds[0]
    for nxt in bounds[1:]:
        acc = product_analytic(acc, nxt, d)
        if acc is None:
            return None
    return acc


def expand(spec: SpdeSpec, max_levels: int = 4) -> CriticalityReport:
    """Run the expansion and assemble the full report.

    Per level, each nonlinear term offers its unabsorbed products of
    least total factor level; the least homogeneity among them forms
    the next object.  The work grows with the products offered, not
    with every product of z1..z_top.

    While every object bound so far is r1 + (l - 1)*g, a product of a
    term of degree n and total derivative order K whose factor levels
    sum to S has homogeneity n*r1 + (S - n)*g - K, whichever levels they
    are: one value per (term, level sum), shared by its products.  The
    first row that leaves that line switches to per-product sums.
    """
    _require_valid(spec)
    if not 1 <= max_levels <= MAX_LEVELS_LIMIT:
        raise ValueError(f"max_levels must be in [1, {MAX_LEVELS_LIMIT}], got {max_levels}")

    dim = spec.dim
    # the spec is valid, so orders need no checks: each is made a constant once
    gamma = DimExpr.const(spec.diffusion_order)
    vector_rank = spec.unknown_rank == VECTOR
    terms = spec.nonlinear_terms
    regs: Dict[int, RegBound] = {}
    labels = [_label(lv) for lv in range(max_levels + 1)]
    rows: List[ExpansionRow] = []
    # registered candidates, keyed by (term index, factor levels), in first-met order
    seen_candidates: Dict[Tuple[int, Tuple[int, ...]], ProductTerm] = {}
    # per (term, level sum), the top level at which the group was absorbed
    # whole; off a constant gain a level can absorb part of a group, so
    # from then on absorbed products are kept by their levels
    absorbed_top: Dict[Tuple[int, int], int] = {}
    absorbed_levels: Dict[Tuple[int, int], set] = {}
    # per term, a lower bound on the level sum of its unabsorbed products
    floors = [t.degree for t in terms]
    # each factor bound once per (level, inner order); inner orders go by
    # index, so keys hash as ints.  At a concrete d every bound here is a
    # constant, so a bound is its own value at d.
    inner = list(dict.fromkeys(k for t in terms for k in t.inner_derivative_orders))
    term_orders = [tuple(inner.index(k) for k in t.inner_derivative_orders) for t in terms]
    orders = [DimExpr.const(k) for k in inner]
    outer = [DimExpr.const(t.outer_derivative_order) for t in terms]
    factors: Dict[Tuple[int, int], RegBound] = {}
    # homogeneity per (term, level sum) while the gain is constant, else per prefix of levels
    by_sum: Dict[Tuple[int, int], RegBound] = {}
    partial_sums: Dict[Tuple[int, Tuple[int, ...]], RegBound] = {}
    # at a concrete d, the analytic fold of each leading run of factors (descending levels)
    folds: Dict[Tuple[int, Tuple[int, ...]], Optional[RegBound]] = {}
    symbolic_stop: Optional[str] = None
    stopped_early = False

    noise_bound, z1_bound = _first_object(spec)
    regs[1] = z1_bound
    noise_term = ProductTerm(-1, ("xi",), (_ZERO,), _ZERO, None, (noise_bound,), noise_bound)
    rows.append(ExpansionRow(1, labels[1], (noise_term,), noise_bound, z1_bound))
    # the gain g once z2 exists; constant_gain says every row so far is on the line
    gain: Optional[DimExpr] = None
    constant_gain = True
    # per term n*r1 - K, with K its total derivative order
    r1 = z1_bound.sup
    base = [
        _times(r1, t.degree) - sum((orders[k] for k in ks), outer[ti])
        for ti, (t, ks) in enumerate(zip(terms, term_orders))
    ]

    def factor(level: int, order: int) -> RegBound:
        key = (level, order)
        bound = factors.get(key)
        if bound is None:
            k = orders[order]
            bound = factors[key] = RegBound(regs[level].sup - k) if k.p0 else regs[level]
        return bound

    def sum_homogeneity(ti: int, total: int) -> RegBound:
        key = (ti, total)
        h = by_sum.get(key)
        if h is None:
            steps = total - terms[ti].degree
            h = base[ti]
            if steps:
                h += _times(gain, steps)
            h = by_sum[key] = RegBound(h)
        return h

    def partial_homogeneity(ti: int, low: Tuple[int, ...]) -> RegBound:
        # the len(low) lowest factors, which take the last inner orders,
        # less the outer derivative; products met in lexicographic order
        # share these
        key = (ti, low)
        h = partial_sums.get(key)
        if h is None:
            b = factor(low[-1], term_orders[ti][-len(low)])
            if len(low) == 1:
                h = RegBound(b.sup - outer[ti]) if outer[ti].p0 else b
            else:
                h = product_homogeneity(partial_homogeneity(ti, low[:-1]), b)
            partial_sums[key] = h
        return h

    def make_product(ti: int, levels: Tuple[int, ...], total: int) -> ProductTerm:
        # factors descending by level; inner orders applied positionally
        known = seen_candidates.get((ti, levels))
        if known is not None:
            return known
        term = terms[ti]
        ordered = levels[::-1]
        return ProductTerm(
            ti,
            tuple([labels[lv] for lv in ordered]),
            term.inner_derivative_orders,
            term.outer_derivative_order,
            term.projector,
            tuple([factor(lv, k) for lv, k in zip(ordered, term_orders[ti])]),
            sum_homogeneity(ti, total) if constant_gain else partial_homogeneity(ti, levels),
        )

    def candidate_pool(top_level: int) -> List[_Entry]:
        """Per term, the unabsorbed products over z1..z_top of least level sum."""
        pool: List[_Entry] = []
        for ti, term in enumerate(terms):
            # a product that uses z_top sums to at least top + degree - 1;
            # absorbing products only raises the least sum of the others
            floor = min(floors[ti], top_level + term.degree - 1)
            for total in range(floor, term.degree * top_level + 1):
                key = (ti, total)
                combos = _tuples_with_sum(term.degree, top_level, total, above=absorbed_top.get(key, 0))
                taken = absorbed_levels.get(key)
                combos = [c for c in combos if c not in taken] if taken else list(combos)
                if combos:
                    floors[ti] = total
                    pool.extend((c, make_product(ti, c, total)) for c in combos)
                    break
        return pool

    def fold(ti: int, ordered: Tuple[int, ...]) -> Optional[RegBound]:
        # the analytic product at d of the leading factors, left to right
        if len(ordered) == 1:
            return factor(ordered[0], term_orders[ti][0])
        key = (ti, ordered[:-1])
        if key in folds:
            acc = folds[key]
        else:
            acc = folds[key] = fold(ti, key[1])
        if acc is None:
            return None
        return product_analytic(acc, factor(ordered[-1], term_orders[ti][len(ordered) - 1]), dim)

    def register(entries: Sequence[_Entry]) -> List[str]:
        """Record candidates; at concrete dim, return newly flagged labels."""
        flagged = []
        for levels, prod in entries:
            key = (prod.term_index, levels)
            if key in seen_candidates:
                continue
            seen_candidates[key] = prod
            if dim is not None and fold(prod.term_index, levels[::-1]) is None:
                flagged.extend(prod.summands(vector_rank))
        return flagged

    level = 1
    while level < max_levels:
        pool = candidate_pool(level)
        best, best_h, undecided = _minimum(pool)
        if undecided is not None:
            symbolic_stop = "E_SYMBOLIC_STOP"
            break

        new_flags = register(pool)
        for levels, prod in best:
            # a term offers one level sum; while the gain is constant its
            # products share one homogeneity, so all or none are absorbed
            key = (prod.term_index, floors[prod.term_index])
            if constant_gain:
                absorbed_top[key] = level
            else:
                absorbed_levels.setdefault(key, set()).add(levels)
        level += 1
        best.sort(key=lambda entry: entry[0][::-1])
        forcing_bound = RegBound(best_h)
        reg = RegBound(best_h + gamma)
        regs[level] = reg
        step = reg.sup - regs[level - 1].sup
        if gain is None:
            gain = step
        elif constant_gain and step != gain:
            constant_gain = False
        rows.append(ExpansionRow(level, labels[level], tuple(p for _, p in best), forcing_bound, reg, renorm=tuple(new_flags)))

        sup = reg.sup
        done = sup.p0 + sup.pd * dim >= 0 if dim is not None else sup.nonneg_for_all_dims()
        if done:
            stopped_early = True
            break

    # remainder after level k is the next level's would-be regularity;
    # the products examined here count as encountered, up to and
    # including the term where the minimum became undecidable
    tail_remainder: Optional[RegBound] = None
    if symbolic_stop is None:
        pool = candidate_pool(level)
        _, tail_h, undecided = _minimum(pool)
        if undecided is None:
            register(pool)
            tail_remainder = RegBound(tail_h + gamma)
        else:
            register([entry for entry in pool if entry[1].term_index <= undecided[1].term_index])
    remainders = [r.object_bound for r in rows[1:]] + [tail_remainder]
    rows = [
        ExpansionRow(r.level, r.label, r.forcing, r.forcing_bound, r.object_bound, rem, r.renorm)
        for r, rem in zip(rows, remainders)
    ]

    if gain is None:
        gain_error = "E_TOO_FEW_ROWS"
    elif constant_gain:
        gain_error = None
    else:
        gain, gain_error = None, "E_NONCONSTANT_GAIN"
    exps = [b - r1 + gamma for b in base]  # term_exponents(spec), from the bases
    try:
        exponent = _common_exponent(exps)
        exponent_error = None
    except ExpansionError as exc:
        exponent, exponent_error = None, exc.code
    if symbolic_stop and gain is None:
        classification = Classification(CONDITION_ON_DIM, _subcritical_condition(exps) or "never subcritical")
    else:
        classification = _classify(exps, dim)

    return CriticalityReport(
        spec=spec,
        dim=dim,
        max_levels=max_levels,
        rows=tuple(rows),
        candidates=tuple(seen_candidates.values()),
        gain=gain,
        gain_error=gain_error,
        scaling_exponent=exponent,
        scaling_exponent_error=exponent_error,
        classification=classification,
        stopped_early=stopped_early,
        symbolic_stop=symbolic_stop,
    )


def gain_per_step(report: CriticalityReport) -> DimExpr:
    """Common difference of consecutive object bounds, as expand found it."""
    if report.gain is None:
        raise ExpansionError(report.gain_error, "object regularities do not advance by a constant step")
    return report.gain


def renormalization_flags(report: CriticalityReport, d: int) -> List[ProductTerm]:
    """Products met during expansion whose analytic product fails at d."""
    if report.dim is not None and d != report.dim:
        raise ValueError(f"report was expanded at d={report.dim}, not d={d}")
    return [c for c in report.candidates if analytic_status(c, d) is None]
