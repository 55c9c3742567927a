"""Spec parsing, validation, canonical printing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from importlib import resources

from oracles import format_spec
from spdecrit.dsl import (
    BUNDLED_SPECS,
    MAX_DEGREE,
    NonlinearTerm,
    SpdeSpec,
    SpecError,
    SpecSemanticError,
    SpecSyntaxError,
    load_bundled_spec,
    parse_spec,
    validate_spec,
)


def test_navier_stokes_bundle():
    spec = load_bundled_spec("navier_stokes")
    assert spec.dim is None
    assert spec.unknown_rank == "vector"
    assert spec.diffusion_order == 2
    assert spec.noise_kind == "stwn"
    (term,) = spec.nonlinear_terms
    assert term.degree == 2
    assert term.outer_derivative_order == 1
    assert term.projector == "leray"


def test_sqg_bundle_exact_rationals():
    spec = load_bundled_spec("sqg")
    assert spec.diffusion_order == Fraction(1, 2)
    assert spec.noise_lift == Fraction(1, 4)
    assert spec.dim == 2
    assert parse_spec(format_spec(spec)) == spec


def test_all_bundles_round_trip():
    for name in BUNDLED_SPECS:
        spec = load_bundled_spec(name)
        assert parse_spec(format_spec(spec)) == spec
        assert validate_spec(spec) == []


def test_missing_nonlinearity_is_semantic_error():
    text = """
    equation bare {
      dimension 3;
      unknown u: scalar;
      diffusion order 2;
      noise stwn;
    }
    """
    with pytest.raises(SpecSemanticError) as err:
        parse_spec(text)
    assert err.value.code == "E_NO_NONLINEAR"


def test_aux_order_below_diffusion_rejected():
    text = """
    equation bad {
      dimension 2;
      unknown u: scalar;
      diffusion order 2;
      aux_z1 order 1;
      noise stwn;
      nonlinear { degree 2; }
    }
    """
    with pytest.raises(SpecSemanticError) as err:
        parse_spec(text)
    assert err.value.code == "E_AUX_ORDER"


def test_negative_lift_diagnosed():
    text = """
    equation bad {
      dimension 2;
      unknown u: scalar;
      diffusion order 1;
      noise spatial_white lift -1;
      nonlinear { degree 2; }
    }
    """
    with pytest.raises(SpecSemanticError) as err:
        parse_spec(text)
    assert err.value.code == "E_NEG_LIFT"


def test_validate_reports_each_violation():
    spec = SpdeSpec(
        name="x",
        dim=2,
        unknown="u",
        unknown_rank="scalar",
        diffusion_order=Fraction(2),
        noise_kind="spatial_white",
        noise_lift=Fraction(-1),
        nonlinear_terms=(NonlinearTerm(1, (Fraction(0),)),),
    )
    codes = {d.code for d in validate_spec(spec)}
    assert "E_NEG_LIFT" in codes
    assert "E_BAD_DEGREE" in codes


def _spec_text(degree):
    return (
        "equation big {\n  dimension 2;\n  unknown u: scalar;\n  diffusion order 2;\n"
        f"  noise stwn;\n  nonlinear {{ degree {degree}; }}\n}}\n"
    )


def test_degree_cap():
    assert parse_spec(_spec_text(MAX_DEGREE)).nonlinear_terms[0].degree == MAX_DEGREE
    with pytest.raises(SpecSemanticError) as err:
        parse_spec(_spec_text(MAX_DEGREE + 1))
    assert err.value.code == "E_BAD_DEGREE"
    # rejected before an inner-order tuple of that length is built
    with pytest.raises(SpecSemanticError) as err:
        load_bundled_spec("phi4").with_overrides(n=10**4)
    assert err.value.code == "E_BAD_DEGREE"


def test_syntax_error_carries_position():
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec("equation x {\n  dimension ;\n}")
    assert err.value.line == 2


def test_concrete_dimension_round_trip():
    spec = load_bundled_spec("kpz")
    assert spec.dim == 1
    assert "dimension 1;" in format_spec(spec)


def test_rationals_never_print_as_decimals():
    spec = load_bundled_spec("sqg")
    text = format_spec(spec)
    assert "1/2" in text and "1/4" in text
    assert "0.5" not in text and "0.25" not in text


def test_comments_and_crlf_accepted():
    text = "equation c { # comment\r\n dimension 2;\r\n unknown u: scalar;\r\n diffusion order 2;\r\n noise stwn;\r\n nonlinear { degree 2; }\r\n}\r\n"
    spec = parse_spec(text)
    assert spec.name == "c"


def test_duplicate_item_rejected():
    text = """
    equation dup {
      dimension 2;
      dimension 3;
      unknown u: scalar;
      diffusion order 2;
      noise stwn;
      nonlinear { degree 2; }
    }
    """
    with pytest.raises(SpecSemanticError) as err:
        parse_spec(text)
    assert err.value.code == "E_DUPLICATE_ITEM"


def test_override_helpers():
    spec = load_bundled_spec("sqg").with_overrides(gamma=Fraction(1), alpha=Fraction(1, 2))
    assert spec.diffusion_order == 1
    assert spec.noise_lift == Fraction(1, 2)
    phi = load_bundled_spec("phi4").with_overrides(n=5)
    assert phi.nonlinear_terms[0].degree == 5
    assert len(phi.nonlinear_terms[0].inner_derivative_orders) == 5


@pytest.mark.parametrize("name", BUNDLED_SPECS)
def test_bundled_spec_is_parsed_once(name):
    text = resources.files("spdecrit").joinpath(f"specs/{name}.spde").read_text(encoding="utf-8")
    assert load_bundled_spec(name) == parse_spec(text)
    assert load_bundled_spec(name) is load_bundled_spec(name)


def test_unknown_bundled_spec_raises_every_time():
    for _ in range(2):
        with pytest.raises(KeyError):
            load_bundled_spec("no_such_spec")


def test_warning_on_riesz_with_time_white():
    spec = load_bundled_spec("sqg")
    tw = spec._replace(noise_kind="stwn")
    warnings = [d for d in validate_spec(tw) if d.severity == "warning"]
    assert any(d.code == "W_TIME_WHITE_RIESZ" for d in warnings)
    assert [d for d in validate_spec(tw) if d.severity == "error"] == []


# ---------------------------------------------------------------------------
# properties

# Every strategy is built once, here: a strategy built inside a composite
# is built and validated again at every draw.
ranks = st.sampled_from(["scalar", "vector"])
small_rationals = st.fractions(min_value=0, max_value=4, max_denominator=6)
pos_rationals = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=6)
degrees = st.integers(min_value=2, max_value=4)
projectors = st.sampled_from([None, "leray", "riesz"])
has_z1_order = st.one_of(st.none(), st.just(True))
names = st.sampled_from(["eq_a", "eq_b", "model1"])
dims = st.one_of(st.none(), st.integers(min_value=1, max_value=6))
unknowns = st.sampled_from(["u", "h", "theta"])
noise_kinds = st.sampled_from(["stwn", "spatial_white"])


@st.composite
def specs(draw):
    degree = draw(degrees)
    inner = tuple(draw(small_rationals) for _ in range(degree))
    term = NonlinearTerm(
        degree=degree,
        inner_derivative_orders=inner,
        outer_derivative_order=draw(small_rationals),
        projector=draw(projectors),
    )
    gamma = draw(pos_rationals)
    gamma1 = gamma + draw(small_rationals)  # drawn whether or not it is kept
    if draw(has_z1_order) is None:
        gamma1 = None
    return SpdeSpec(
        name=draw(names),
        dim=draw(dims),
        unknown=draw(unknowns),
        unknown_rank=draw(ranks),
        diffusion_order=gamma,
        noise_kind=draw(noise_kinds),
        noise_lift=draw(small_rationals),
        z1_diffusion_order=gamma1,
        nonlinear_terms=(term,),
    )


@given(specs())
@settings(max_examples=150)
def test_round_trip_property(spec):
    assert parse_spec(format_spec(spec)) == spec


@given(st.text(max_size=200))
@settings(max_examples=300)
def test_parsing_is_total(text):
    try:
        parse_spec(text)
    except SpecError:
        pass  # diagnosed inputs are fine; anything else would fail the test


@pytest.mark.parametrize("item", ["diffusion order 1/0;", "noise stwn lift 3/0;"])
def test_zero_denominator_is_a_syntax_error(item):
    text = "equation x {\n  dimension 3;\n  unknown u: scalar;\n  " + item + "\n  noise stwn;\n  nonlinear { degree 3; }\n}"
    if item.startswith("noise"):
        text = text.replace("\n  noise stwn;", "")
    with pytest.raises(SpecSyntaxError, match="zero denominator") as err:
        parse_spec(text)
    assert err.value.line == 4
