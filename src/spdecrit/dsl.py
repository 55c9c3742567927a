"""Equation specification files: parsing, validation, canonical printing.

The format is a flat block of semicolon-terminated items inside
``equation NAME { ... }``.  Keywords are ASCII, ``#`` starts a comment,
numeric literals are exact rationals written ``p`` or ``p/q``.  Parsing
is total: any input either yields a spec or raises SpecSyntaxError /
SpecSemanticError, never anything else.
"""

from __future__ import annotations

import re
from functools import lru_cache
from fractions import Fraction
from importlib import resources
from typing import List, NamedTuple, Optional, Tuple

from .errors import SpecError
from .rules import NOISE_KINDS, SPACE_TIME_WHITE, SPATIAL_WHITE

SCALAR = "scalar"
VECTOR = "vector"

BUNDLED_SPECS = ("navier_stokes", "kpz", "phi4", "sqg", "yang_mills")

# Largest degree of a nonlinear term, matching the level cap of the
# expansion.
MAX_DEGREE = 32


class SpecSyntaxError(SpecError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class SpecSemanticError(SpecError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class Diagnostic(NamedTuple):
    code: str
    message: str
    severity: str = "error"


class NonlinearTerm(NamedTuple):
    """One nonlinearity, reduced to what regularity counting needs.

    degree unknown factors, a derivative order per factor, one outer
    derivative order, and an optional order-zero projector flag.
    """

    degree: int
    inner_derivative_orders: Tuple[Fraction, ...]
    outer_derivative_order: Fraction = Fraction(0)
    projector: Optional[str] = None

    @property
    def total_derivative_order(self) -> Fraction:
        return sum(self.inner_derivative_orders, Fraction(0)) + self.outer_derivative_order


class SpdeSpec(NamedTuple):
    name: str
    dim: Optional[int]  # None means symbolic
    unknown: str
    unknown_rank: str  # scalar | vector
    diffusion_order: Fraction
    noise_kind: str
    noise_lift: Fraction = Fraction(0)
    z1_diffusion_order: Optional[Fraction] = None
    nonlinear_terms: Tuple[NonlinearTerm, ...] = ()
    dim_symbol: str = "d"

    @property
    def scaling_time_order(self) -> Fraction:
        # parabolic scaling is tied to the leading dissipative operator
        return self.diffusion_order

    @property
    def z1_effective_order(self) -> Fraction:
        if self.z1_diffusion_order is not None:
            return self.z1_diffusion_order
        return self.diffusion_order

    def with_overrides(self, gamma=None, alpha=None, gamma1=None, n=None, dim="keep") -> "SpdeSpec":
        """Return a copy with common parameters replaced.

        gamma: diffusion order; alpha: noise lift; gamma1: auxiliary
        first-level order; n: degree of the (single) nonlinear term;
        dim: concrete int or None for symbolic.
        """
        changes = {}
        if gamma is not None:
            changes["diffusion_order"] = Fraction(gamma)
        if alpha is not None:
            changes["noise_lift"] = Fraction(alpha)
        if gamma1 is not None:
            changes["z1_diffusion_order"] = Fraction(gamma1)
        if n is not None:
            if len(self.nonlinear_terms) != 1:
                raise SpecSemanticError("E_MULTI_TERM", "degree override needs a single nonlinear term")
            term = self.nonlinear_terms[0]
            n = int(n)
            if n > MAX_DEGREE:
                raise SpecSemanticError("E_BAD_DEGREE", f"degree must be <= {MAX_DEGREE}, got {n}")
            inner = term.inner_derivative_orders
            if len(set(inner)) > 1:
                raise SpecSemanticError("E_DERIV_COUNT", "cannot retarget degree with mixed inner derivatives")
            new_inner = tuple([inner[0]] * n) if inner else (Fraction(0),) * n
            changes["nonlinear_terms"] = (term._replace(degree=n, inner_derivative_orders=new_inner),)
        if dim != "keep":
            changes["dim"] = dim if dim is None else int(dim)
        return self._replace(**changes) if changes else self


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<rat>-?\d+/\d+)
  | (?P<int>-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{};:,])
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SpecSyntaxError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, pos - line_start + 1))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            line_start = pos + chunk.rfind("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, n - line_start + 1))
    return tokens


_ITEMS = ("dimension", "unknown", "diffusion", "aux_z1", "noise", "nonlinear")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise SpecSyntaxError(message, tok.line, tok.column)

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text if tok.text else "end of input"
            self.fail(f"expected {want!r}, found {got!r}")
        return self.next()

    def expect_keyword(self, word: str):
        tok = self.peek()
        if tok.kind != "ident" or tok.text != word:
            self.fail(f"expected keyword {word!r}, found {tok.text!r}")
        return self.next()

    def accept_keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == word:
            self.next()
            return True
        return False

    def rational(self) -> Fraction:
        tok = self.peek()
        if tok.kind not in ("rat", "int"):
            self.fail(f"expected a rational, found {tok.text!r}")
        try:
            value = Fraction(tok.text)
        except ZeroDivisionError:
            self.fail(f"zero denominator in {tok.text!r}")
        self.next()
        return value

    def integer(self) -> int:
        tok = self.expect("int")
        return int(tok.text)

    # grammar -------------------------------------------------------------

    def parse(self) -> SpdeSpec:
        self.expect_keyword("equation")
        name = self.expect("ident").text
        self.expect("punct", "{")
        fields = {"nonlinear_terms": []}
        seen = set()
        while not (self.peek().kind == "punct" and self.peek().text == "}"):
            if self.peek().kind == "eof":
                self.fail("unterminated equation block")
            self.item(fields, seen)
        self.expect("punct", "}")
        if self.peek().kind != "eof":
            self.fail("trailing input after equation block")
        return self.build(name, fields, seen)

    def item(self, fields: dict, seen: set):
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected an item keyword, found {tok.text!r}")
        key = tok.text
        if key not in _ITEMS:
            self.fail(f"unknown item {key!r}")
        if key in seen:
            raise SpecSemanticError("E_DUPLICATE_ITEM", f"duplicate item {key!r}")
        self.next()
        if key == "nonlinear":
            fields["nonlinear_terms"].append(self.nonlinear_block())
            return  # blocks are not tracked in `seen` and take no ';'
        if key == "dimension":
            t = self.peek()
            if t.kind == "int":
                fields["dim"] = self.integer()
                fields["dim_symbol"] = "d"
            elif t.kind == "ident":
                fields["dim"] = None
                fields["dim_symbol"] = self.next().text
            else:
                self.fail("dimension takes an integer or a symbol")
        elif key == "unknown":
            fields["unknown"] = self.expect("ident").text
            self.expect("punct", ":")
            rank = self.expect("ident").text
            if rank not in (SCALAR, VECTOR):
                raise SpecSemanticError("E_BAD_RANK", f"unknown rank {rank!r}")
            fields["unknown_rank"] = rank
        elif key == "noise":
            kind = self.expect("ident").text
            if kind not in NOISE_KINDS:
                raise SpecSemanticError("E_NOISE_KIND", f"unknown noise kind {kind!r}")
            fields["noise_kind"] = kind
            if self.accept_keyword("lift"):
                fields["noise_lift"] = self.rational()
        else:
            self.expect_keyword("order")
            fields["diffusion_order" if key == "diffusion" else "z1_diffusion_order"] = self.rational()
        self.expect("punct", ";")
        seen.add(key)

    def nonlinear_block(self) -> NonlinearTerm:
        self.expect("punct", "{")
        self.expect_keyword("degree")
        degree = self.integer()
        self.expect("punct", ";")
        inner: Optional[List[Fraction]] = None
        outer = Fraction(0)
        projector = None
        while not (self.peek().kind == "punct" and self.peek().text == "}"):
            tok = self.peek()
            if tok.kind != "ident":
                self.fail(f"expected a nonlinear item, found {tok.text!r}")
            if tok.text not in ("inner_deriv", "outer_deriv", "projector"):
                self.fail(f"unknown nonlinear item {tok.text!r}")
            self.next()
            if tok.text == "inner_deriv":
                inner = [self.rational()]
                while self.peek().kind == "punct" and self.peek().text == ",":
                    self.next()
                    inner.append(self.rational())
            elif tok.text == "outer_deriv":
                outer = self.rational()
            else:
                projector = self.expect("ident").text
                if projector not in ("leray", "riesz"):
                    raise SpecSemanticError("E_PROJECTOR", f"unknown projector {projector!r}")
            self.expect("punct", ";")
        self.expect("punct", "}")
        if inner is None:
            inner = [Fraction(0)] * max(degree, 0)
        return NonlinearTerm(degree, tuple(inner), outer, projector)

    def build(self, name: str, fields: dict, seen: set) -> SpdeSpec:
        for required in ("dimension", "unknown", "diffusion", "noise"):
            if required not in seen:
                raise SpecSemanticError("E_MISSING_ITEM", f"missing required item {required!r}")
        spec = SpdeSpec(
            name=name,
            dim=fields.get("dim"),
            unknown=fields["unknown"],
            unknown_rank=fields["unknown_rank"],
            diffusion_order=fields["diffusion_order"],
            noise_kind=fields["noise_kind"],
            noise_lift=fields.get("noise_lift", Fraction(0)),
            z1_diffusion_order=fields.get("z1_diffusion_order"),
            nonlinear_terms=tuple(fields["nonlinear_terms"]),
            dim_symbol=fields.get("dim_symbol", "d"),
        )
        errors = [diag for diag in validate_spec(spec) if diag.severity == "error"]
        if errors:
            raise SpecSemanticError(errors[0].code, errors[0].message)
        return spec


def parse_spec(text: str) -> SpdeSpec:
    """Parse and validate an equation description."""
    if not isinstance(text, str):
        raise TypeError("parse_spec expects a UTF-8 string")
    return _Parser(text).parse()


def validate_spec(spec: SpdeSpec) -> List[Diagnostic]:
    """Check all invariants; empty result means the spec is valid.

    Warnings (severity 'warning') never make a spec invalid.
    """
    out: List[Diagnostic] = []
    if spec.dim is not None and spec.dim < 1:
        out.append(Diagnostic("E_DIM", f"dimension must be >= 1, got {spec.dim}"))
    if spec.unknown_rank not in (SCALAR, VECTOR):
        out.append(Diagnostic("E_BAD_RANK", f"unknown rank {spec.unknown_rank!r}"))
    if spec.diffusion_order < 0:
        out.append(Diagnostic("E_DIFFUSION_ORDER", f"diffusion order must be >= 0, got {spec.diffusion_order}"))
    if spec.noise_kind not in NOISE_KINDS:
        out.append(Diagnostic("E_NOISE_KIND", f"unknown noise kind {spec.noise_kind!r}"))
    if spec.noise_lift < 0:
        out.append(Diagnostic("E_NEG_LIFT", f"noise lift must be >= 0, got {spec.noise_lift}"))
    if spec.z1_diffusion_order is not None and spec.z1_diffusion_order < spec.diffusion_order:
        out.append(Diagnostic(
            "E_AUX_ORDER",
            f"auxiliary first-level order {spec.z1_diffusion_order} is below the diffusion order {spec.diffusion_order}",
        ))
    if not spec.nonlinear_terms:
        out.append(Diagnostic("E_NO_NONLINEAR", "at least one nonlinear term is required"))
    for idx, term in enumerate(spec.nonlinear_terms):
        where = f"nonlinear term {idx + 1}"
        if term.degree < 2:
            out.append(Diagnostic("E_BAD_DEGREE", f"{where}: degree must be >= 2, got {term.degree}"))
        elif term.degree > MAX_DEGREE:
            out.append(Diagnostic("E_BAD_DEGREE", f"{where}: degree must be <= {MAX_DEGREE}, got {term.degree}"))
        if len(term.inner_derivative_orders) != term.degree:
            out.append(Diagnostic(
                "E_DERIV_COUNT",
                f"{where}: {len(term.inner_derivative_orders)} inner derivative orders for degree {term.degree}",
            ))
        if any(k < 0 for k in term.inner_derivative_orders) or term.outer_derivative_order < 0:
            out.append(Diagnostic("E_NEG_ORDER", f"{where}: derivative orders must be >= 0"))
        if term.projector == "riesz" and spec.noise_kind == SPACE_TIME_WHITE:
            out.append(Diagnostic(
                "W_TIME_WHITE_RIESZ",
                f"{where}: Riesz-type nonlinearity with time-white noise; known constructions avoid this combination",
                severity="warning",
            ))
    return out


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


def load_bundled_spec(name: str) -> SpdeSpec:
    """Load one of the specs shipped with the package (parsed once per
    process; a spec is immutable, so every caller shares it)."""
    if name not in BUNDLED_SPECS:
        raise KeyError(f"no bundled spec named {name!r}; available: {', '.join(BUNDLED_SPECS)}")
    return _parse_bundled(name)


@lru_cache(maxsize=None)
def _parse_bundled(name: str) -> SpdeSpec:
    text = resources.files("spdecrit").joinpath(f"specs/{name}.spde").read_text(encoding="utf-8")
    return parse_spec(text)
