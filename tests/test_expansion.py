"""Tree expansion: golden rows, gains, classification, renormalization flags."""

from fractions import Fraction

import pytest

from oracles import closed_form_exponent, closed_form_exponents
from spdecrit.affine import DimExpr
from spdecrit.dsl import load_bundled_spec
from spdecrit.expansion import (
    CONDITION_ON_DIM,
    CRITICAL,
    SUBCRITICAL,
    SUPERCRITICAL,
    expand,
    render_forcing,
    renormalization_flags,
)

F = Fraction


def aff(c0, cd=0):
    return DimExpr(F(c0), F(cd))


GOLDEN_ROWS = [
    (1, aff(-1, F(-1, 2)), aff(1, F(-1, 2))),
    (2, aff(1, -1), aff(3, -1)),
    (3, aff(3, F(-3, 2)), aff(5, F(-3, 2))),
    (4, aff(5, -2), aff(7, -2)),
]


def test_golden_table_symbolic():
    report = expand(load_bundled_spec("navier_stokes"), 4)
    assert len(report.rows) == 4
    for row, (level, forcing, obj) in zip(report.rows, GOLDEN_ROWS):
        assert row.level == level
        assert row.forcing_bound.sup == forcing
        assert row.object_bound.sup == obj


def test_golden_table_term_strings():
    report = expand(load_bundled_spec("navier_stokes"), 4)
    rendered = [render_forcing(r.forcing, report.vector_rank) for r in report.rows]
    assert rendered == [
        "xi",
        "div(z1*z1)",
        "div(z2*z1 + z1*z2)",
        "div(z2*z2 + z3*z1 + z1*z3)",
    ]


def test_remainder_bounds_match_hand_values():
    report = expand(load_bundled_spec("navier_stokes"), 4)
    rems = [r.remainder_bound.sup for r in report.rows]
    assert rems[0] == aff(3, -1)
    assert rems[1] == aff(5, F(-3, 2))
    assert rems[3] == aff(9, F(-5, 2))


def test_level4_tie_keeps_three_summands():
    report = expand(load_bundled_spec("navier_stokes"), 4)
    row4 = report.rows[3]
    summands = [s for t in row4.forcing for s in t.summands(True)]
    assert len(summands) == 3
    assert {s for s in summands} == {"z2*z2", "z3*z1", "z1*z3"}


def verdict(spec, dim):
    """The report's classification of spec at dim (None: symbolic)."""
    return expand(spec.with_overrides(dim=dim), 1).classification


def test_nse_gain_and_exponent_agree():
    spec = load_bundled_spec("navier_stokes")
    report = expand(spec, 4)
    assert report.gain == aff(2, F(-1, 2))
    assert report.scaling_exponent == aff(2, F(-1, 2))


def test_nse_classification_by_dimension():
    spec = load_bundled_spec("navier_stokes")
    assert verdict(spec, 3).kind == SUBCRITICAL
    assert verdict(spec, 4).kind == CRITICAL
    assert verdict(spec, 5).kind == SUPERCRITICAL
    sym = verdict(spec, None)
    assert sym.kind == CONDITION_ON_DIM and sym.condition == "d < 4"


def test_phi4_gain_and_rows():
    spec = load_bundled_spec("phi4")
    report = expand(spec, 3)
    assert report.rows[0].object_bound.sup == aff(1, F(-1, 2))
    assert report.rows[1].forcing_bound.sup == aff(3, F(-3, 2))
    assert report.rows[1].object_bound.sup == aff(5, F(-3, 2))
    assert report.gain == aff(4, -1)
    assert report.scaling_exponent == aff(4, -1)
    assert verdict(spec, 3).kind == SUBCRITICAL
    assert verdict(spec, 4).kind == CRITICAL
    assert verdict(spec, 5).kind == SUPERCRITICAL


def test_phi4_level2_forcing_is_cube():
    report = expand(load_bundled_spec("phi4"), 2)
    (term,) = report.rows[1].forcing
    assert term.factors == ("z1", "z1", "z1")


def test_kpz_slope_bound_and_gain():
    spec = load_bundled_spec("kpz")
    report = expand(spec, 4)
    r1 = report.rows[0].object_bound
    assert r1.sup == aff(F(1, 2))
    # slope of the first object: one derivative off the object bound
    (forcing,) = report.rows[1].forcing
    assert all(b.sup == aff(F(-1, 2)) for b in forcing.factor_bounds)
    assert report.rows[1].forcing_bound.sup == aff(-1)
    assert report.rows[1].object_bound.sup == aff(1)
    assert report.gain == aff(F(1, 2))
    assert report.stopped_early  # second object is already nonnegative


def test_yang_mills_critical_at_four():
    spec = load_bundled_spec("yang_mills")
    assert verdict(spec, 4).kind == CRITICAL
    assert verdict(spec, 3).kind == SUBCRITICAL
    # the report's verdict is that of the least per-term exponent
    exps = closed_form_exponents(spec)
    assert set(exps) == {aff(4, -1), aff(2, F(-1, 2))}
    report = expand(spec, 4)
    assert report.scaling_exponent is None
    assert report.scaling_exponent_error == "E_MULTI_TERM"


def test_sqg_exponent_formula():
    spec = load_bundled_spec("sqg")
    for num_g in range(0, 7):
        for num_a in range(0, 5):
            gamma, alpha = F(num_g, 4), F(num_a, 4)
            s = spec.with_overrides(gamma=gamma, alpha=alpha)
            assert expand(s, 1).scaling_exponent == aff(2 * gamma - 2 - alpha)


def test_sqg_grid_exponent_matches_expansion_gain():
    spec = load_bundled_spec("sqg")
    for num_g in range(0, 7):
        for num_a in range(0, 5):
            s = spec.with_overrides(gamma=F(num_g, 4), alpha=F(num_a, 4))
            report = expand(s, 4)
            assert report.gain == closed_form_exponent(s)


def test_modified_first_level_order():
    spec = load_bundled_spec("sqg").with_overrides(gamma1=F(3, 4))
    report = expand(spec, 2)
    # first object gains gamma1, later levels gain gamma
    assert report.rows[0].object_bound.sup == aff(F(-1) - F(1, 4) + F(3, 4))
    assert report.gain == closed_form_exponent(spec)


def test_max_levels_one_gives_single_row():
    report = expand(load_bundled_spec("navier_stokes"), 1)
    assert len(report.rows) == 1
    assert report.gain is None and report.gain_error == "E_TOO_FEW_ROWS"


def test_max_levels_bounds():
    spec = load_bundled_spec("navier_stokes")
    with pytest.raises(ValueError):
        expand(spec, 0)
    with pytest.raises(ValueError):
        expand(spec, 33)


def test_renorm_flags_nse_three_dims():
    spec = load_bundled_spec("navier_stokes").with_overrides(dim=3)
    report = expand(spec, 4)
    flagged = {t.factors for t in renormalization_flags(report, 3)}
    assert ("z1", "z1") in flagged
    assert ("z2", "z1") in flagged


def test_no_flags_when_first_object_is_regular():
    # a lifted-solve variant whose first object has bound +1: products stay defined
    spec = load_bundled_spec("navier_stokes").with_overrides(gamma1=F(7, 2), dim=3)
    report = expand(spec, 2)
    assert report.rows[0].object_bound.evaluate(3) == 1
    assert renormalization_flags(report, 3) == []


def test_symbolic_report_flags_need_concrete_dim():
    report = expand(load_bundled_spec("navier_stokes"), 3)
    flagged = {t.factors for t in renormalization_flags(report, 3)}
    assert ("z1", "z1") in flagged
    with pytest.raises(ValueError):
        renormalization_flags(expand(load_bundled_spec("navier_stokes").with_overrides(dim=3), 3), 4)


def test_lift_monotonicity_leaf_count_weights():
    """Raising the noise lift by delta lowers object k by (1+(k-1)(n-1))*delta."""
    spec = load_bundled_spec("navier_stokes")
    base = expand(spec, 4)
    delta = F(1, 8)
    lifted = expand(spec.with_overrides(alpha=delta), 4)
    for k, (rb, rl) in enumerate(zip(base.rows, lifted.rows), start=1):
        drop = rb.object_bound.sup - rl.object_bound.sup
        assert drop == DimExpr(F(k) * delta)


def test_determinism_same_inputs_same_report():
    spec = load_bundled_spec("navier_stokes")
    assert expand(spec, 4) == expand(spec, 4)


def test_early_stop_at_concrete_dim():
    spec = load_bundled_spec("navier_stokes").with_overrides(dim=3)
    report = expand(spec, 4)
    # second object reaches bound 0 at d=3, so the expansion may rest there
    assert report.rows[-1].object_bound.evaluate(3) >= 0
    assert report.stopped_early


def test_supercritical_grid_point_keeps_constant_gain():
    spec = load_bundled_spec("sqg").with_overrides(gamma=F(0), alpha=F(1))
    report = expand(spec, 5)
    assert report.gain == aff(-3)
    assert report.classification.kind == SUPERCRITICAL


def test_multi_term_symbolic_stops_with_condition():
    """Mixed-homogeneity terms cannot be ranked at symbolic dimension, so
    the expansion rests after level one and reports the condition."""
    report = expand(load_bundled_spec("yang_mills"), 4)
    assert report.symbolic_stop == "E_SYMBOLIC_STOP"
    assert len(report.rows) == 1
    assert report.classification.kind == CONDITION_ON_DIM
    assert report.classification.condition == "d < 4"
    # at a concrete dimension the same spec expands normally
    concrete = expand(load_bundled_spec("yang_mills").with_overrides(dim=3), 3)
    assert concrete.symbolic_stop is None
    assert len(concrete.rows) >= 2
