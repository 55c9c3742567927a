"""The output-sensitive expansion against the exhaustive enumerator it replaced.

`oracle_expand` is the earlier `expand`: at every level it walks all of
`combinations_with_replacement(1..L, degree)`, drops the absorbed
products, and rebuilds each product's bounds with inline arithmetic.
The reports must agree field by field, candidate order included.
"""

import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gain_of_rows
from spdecrit.affine import DimExpr, RegBound
from spdecrit.dsl import VECTOR, NonlinearTerm, SpdeSpec, load_bundled_spec
from spdecrit.expansion import (
    CONDITION_ON_DIM,
    Classification,
    CriticalityReport,
    ExpansionError,
    ExpansionRow,
    ProductTerm,
    _compare,
    _label,
    _require_valid,
    _scaling_info,
    _subcritical_condition,
    _tuples_with_sum,
    analytic_status,
    classify,
    expand,
    scaling_exponent,
    term_exponents,
)
from spdecrit.report import render_table, report_payload
from spdecrit.rules import noise_regularity

F = Fraction


def _make_product(term_index, term, levels, regs):
    ordered = tuple(sorted(levels, reverse=True))
    bounds = []
    homog = DimExpr.const(0)
    for lv, k in zip(ordered, term.inner_derivative_orders):
        b = RegBound(regs[lv].sup - DimExpr.const(k))
        bounds.append(b)
        homog = homog + b.sup
    homog = homog - DimExpr.const(term.outer_derivative_order)
    return ProductTerm(
        term_index=term_index,
        factors=tuple(_label(lv) for lv in ordered),
        inner_orders=tuple(term.inner_derivative_orders),
        outer_order=term.outer_derivative_order,
        projector=term.projector,
        factor_bounds=tuple(bounds),
        homogeneity=RegBound(homog),
    )


def oracle_expand(spec: SpdeSpec, max_levels: int = 4) -> CriticalityReport:
    _require_valid(spec)
    dim = spec.dim
    gamma = spec.diffusion_order
    regs: Dict[int, RegBound] = {}
    rows: List[ExpansionRow] = []
    seen_candidates: Dict[Tuple[int, Tuple[str, ...]], ProductTerm] = {}
    absorbed: Dict[int, set] = {i: set() for i in range(len(spec.nonlinear_terms))}
    symbolic_stop: Optional[str] = None
    stopped_early = False

    noise_bound = noise_regularity(spec.noise_kind, _scaling_info(spec), spec.noise_lift)
    z1_bound = RegBound(noise_bound.sup + DimExpr.const(spec.z1_effective_order))
    regs[1] = z1_bound
    noise_term = ProductTerm(-1, ("xi",), (F(0),), F(0), None, (noise_bound,), noise_bound)
    rows.append(ExpansionRow(1, _label(1), (noise_term,), noise_bound, z1_bound))

    def candidate_pool(top_level):
        pool = []
        for ti, term in enumerate(spec.nonlinear_terms):
            combos = [
                c
                for c in itertools.combinations_with_replacement(range(1, top_level + 1), term.degree)
                if c not in absorbed[ti]
            ]
            if not combos:
                continue
            min_ls = min(sum(c) for c in combos)
            best = [c for c in combos if sum(c) == min_ls]
            pool.append((ti, term, best))
        return pool

    def register(products):
        flagged = []
        for ti, levels, prod in products:
            key = (ti, prod.factors)
            if key in seen_candidates:
                continue
            seen_candidates[key] = prod
            if dim is not None and analytic_status(prod, dim) is None:
                flagged.extend(prod.summands(spec.unknown_rank == VECTOR))
        return flagged

    level = 1
    while level < max_levels:
        pool = candidate_pool(level)
        if not pool:
            break
        built = []
        for ti, term, combos in pool:
            for c in combos:
                built.append((ti, c, _make_product(ti, term, c, regs)))
        best = []
        best_h = None
        undecidable = False
        for entry in built:
            h = entry[2].homogeneity.sup
            if best_h is None:
                best, best_h = [entry], h
                continue
            cmp = _compare(h, best_h)
            if cmp is None:
                undecidable = True
                break
            if cmp < 0:
                best, best_h = [entry], h
            elif cmp == 0:
                best.append(entry)
        if undecidable:
            symbolic_stop = "E_SYMBOLIC_STOP"
            break

        new_flags = register(built)
        level += 1
        best.sort(key=lambda entry: tuple(sorted(entry[1], reverse=True)))
        forcing = tuple(p for _, _, p in best)
        reg = RegBound(best_h + DimExpr.const(gamma))
        regs[level] = reg
        for ti, levels, _ in best:
            absorbed[ti].add(levels)
        rows.append(ExpansionRow(level, _label(level), forcing, RegBound(best_h), reg, renorm=tuple(new_flags)))

        sup = reg.sup
        done = sup.evaluate(dim) >= 0 if dim is not None else sup.nonneg_for_all_dims()
        if done:
            stopped_early = True
            break

    tail_remainder = None
    if symbolic_stop is None:
        tail_best = None
        decidable = True
        for ti, term, combos in candidate_pool(level):
            tail_built = [(ti, c, _make_product(ti, term, c, regs)) for c in combos]
            register(tail_built)
            for _, _, prod in tail_built:
                h = prod.homogeneity.sup
                if tail_best is None:
                    tail_best = h
                    continue
                cmp = _compare(h, tail_best)
                if cmp is None:
                    decidable = False
                    break
                if cmp < 0:
                    tail_best = h
            if not decidable:
                break
        if decidable and tail_best is not None:
            tail_remainder = RegBound(tail_best + DimExpr.const(gamma))
    remainders = []
    for idx in range(len(rows)):
        remainders.append(rows[idx + 1].object_bound if idx + 1 < len(rows) else tail_remainder)
    rows = [
        ExpansionRow(r.level, r.label, r.forcing, r.forcing_bound, r.object_bound, rem, r.renorm)
        for r, rem in zip(rows, remainders)
    ]

    gain, gain_error = gain_of_rows(rows)
    try:
        exponent, exponent_error = scaling_exponent(spec), None
    except ExpansionError as exc:
        exponent, exponent_error = None, exc.code
    if symbolic_stop and gain is None:
        condition = _subcritical_condition(term_exponents(spec)) or "never subcritical"
        classification = Classification(CONDITION_ON_DIM, condition)
    else:
        classification = classify(spec, dim)

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


def assert_same_report(spec, levels):
    new, old = expand(spec, levels), oracle_expand(spec, levels)
    assert new == old
    assert [c.factors for c in new.candidates] == [c.factors for c in old.candidates]
    assert report_payload(new) == report_payload(old)
    assert render_table(new) == render_table(old)


# Every strategy is built once, here: a strategy built inside a composite
# is built and validated again at every draw.
orders = st.fractions(min_value=0, max_value=2, max_denominator=4)
term_degrees = st.integers(min_value=2, max_value=6)
projectors = st.sampled_from([None, "leray", "riesz"])
gammas = st.fractions(min_value=0, max_value=3, max_denominator=4)
dims = st.one_of(st.none(), st.integers(min_value=1, max_value=5))
ranks = st.sampled_from(["scalar", "vector"])
noise_kinds = st.sampled_from(["stwn", "spatial_white"])
z1_extras = st.one_of(st.none(), orders)  # the z1 order is gamma plus the extra


@st.composite
def terms(draw):
    degree = draw(term_degrees)
    return NonlinearTerm(
        degree=degree,
        inner_derivative_orders=tuple(draw(orders) for _ in range(degree)),
        outer_derivative_order=draw(orders),
        projector=draw(projectors),
    )


term_lists = st.lists(terms(), min_size=1, max_size=2)


@st.composite
def specs(draw):
    gamma = draw(gammas)
    return SpdeSpec(
        name="random",
        dim=draw(dims),
        unknown="u",
        unknown_rank=draw(ranks),
        diffusion_order=gamma,
        noise_kind=draw(noise_kinds),
        noise_lift=draw(orders),
        z1_diffusion_order=None if (extra := draw(z1_extras)) is None else gamma + extra,
        nonlinear_terms=tuple(draw(term_lists)),
    )


@settings(max_examples=150, deadline=None)
@given(specs(), st.integers(min_value=1, max_value=12))
def test_expand_matches_exhaustive_enumerator(spec, levels):
    assert_same_report(spec, levels)


@pytest.mark.parametrize("name", ["navier_stokes", "kpz", "phi4", "sqg", "yang_mills"])
@pytest.mark.parametrize("dim", ["keep", None, 1, 2, 3, 4, 5])
def test_bundled_specs_match_exhaustive_enumerator(name, dim):
    spec = load_bundled_spec(name)
    if dim != "keep":
        spec = spec.with_overrides(dim=dim)
    for levels in (1, 2, 4, 8):
        assert_same_report(spec, levels)


@pytest.mark.parametrize("degree", [2, 3, 5, 6])
@pytest.mark.parametrize("top", [1, 2, 4, 7])
def test_tuples_by_sum_follow_combinations_order(degree, top):
    every = list(itertools.combinations_with_replacement(range(1, top + 1), degree))
    by_sum = [c for total in range(degree, degree * top + 1) for c in _tuples_with_sum(degree, top, total)]
    assert sorted(by_sum) == every
    for total in range(degree - 1, degree * top + 2):
        assert list(_tuples_with_sum(degree, top, total)) == [c for c in every if sum(c) == total]


# Off a constant gain, one (term, level sum) group can hold two
# homogeneities.  4,000 draws of `specs()` (1,861 of them with two terms)
# gave no report with E_NONCONSTANT_GAIN, so this spec pins the
# per-product path of `expand`.
SPLIT_GROUP_SPEC = """
equation split_group {
  dimension 4;
  unknown u: scalar;
  diffusion order 6;
  noise stwn lift 5;
  nonlinear { degree 2; inner_deriv 0, 1; }
  nonlinear { degree 2; inner_deriv 0, 1/2; }
}
"""


def _level_sum(candidate):
    return sum(int(label[1:]) for label in candidate.factors)


def test_a_level_sum_group_with_two_homogeneities_matches_the_enumerator():
    from spdecrit.dsl import parse_spec

    spec = parse_spec(SPLIT_GROUP_SPEC)
    for levels in (4, 6, 8, 12):
        assert_same_report(spec, levels)
    report = expand(spec, 12)
    assert report.gain_error == "E_NONCONSTANT_GAIN"
    group = {
        c.render(False): c.homogeneity.sup for c in report.candidates if c.term_index == 0 and _level_sum(c) == 4
    }
    assert group == {"z3*D[z1]": DimExpr.const(F(-15, 2)), "z2*D[z2]": DimExpr.const(-7)}


@settings(max_examples=100, deadline=None)
@given(specs(), st.integers(min_value=1, max_value=12))
def test_a_constant_gain_gives_one_homogeneity_per_level_sum(spec, levels):
    report = expand(spec, levels)
    if report.gain_error is not None:
        return
    groups: Dict[Tuple[int, int], set] = {}
    for c in report.candidates:
        # summed from the factor bounds, not read from the shared value
        h = sum((b.sup for b in c.factor_bounds), DimExpr.const(0)) - DimExpr.const(c.outer_order)
        assert h == c.homogeneity.sup
        groups.setdefault((c.term_index, _level_sum(c)), set()).add(h)
    assert all(len(values) == 1 for values in groups.values())
