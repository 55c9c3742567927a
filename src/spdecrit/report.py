"""Rendering and serialization of analysis reports.

Rationals travel as "p/q" strings and affine bounds as {"c0", "cd"}
pairs so golden values survive JSON exactly.  The envelope adds tool
version, config echo and a UTC timestamp; everything except the
timestamp is reproducible byte-for-byte for a fixed config.

Nothing here imports numpy or mpmath: the symbolic commands render and
write their output through this module alone.  The lab writes through
it too, so the two renderers import the symbolic half when called.
json and datetime are imported where the envelope is built and written,
so the table form of `analyze` loads neither.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from . import __version__

if TYPE_CHECKING:
    from .affine import DimExpr
    from .expansion import CriticalityReport

_INF = float("inf")


def affine_to_json(e: Optional[DimExpr]) -> Optional[dict]:
    if e is None:
        return None
    c0, cd = e.coefficient_strs()
    return {"c0": c0, "cd": cd}


def report_payload(report: CriticalityReport) -> dict:
    """JSON-ready body of an analysis report."""
    from .affine import format_affine

    rows = []
    vector_rank = report.vector_rank
    for row in report.rows:
        terms: List[str] = []
        for t in row.forcing:
            terms.extend(t.summands(vector_rank))
        rows.append(
            {
                "level": row.level,
                "label": row.label,
                "terms": terms,
                "forcing": affine_to_json(row.forcing_bound.sup),
                "object": affine_to_json(row.object_bound.sup),
                "remainder": affine_to_json(row.remainder_bound.sup if row.remainder_bound else None),
                "renorm": list(row.renorm),
            }
        )
    payload = {
        "equation": report.spec.name,
        "dimension": report.dim if report.dim is not None else "symbolic",
        "levels": len(report.rows),
        "rows": rows,
        "gain": affine_to_json(report.gain),
        "gain_error": report.gain_error,
        "scaling_exponent": format_affine(report.scaling_exponent) if report.scaling_exponent else None,
        "scaling_exponent_error": report.scaling_exponent_error,
        "classification": report.classification.render(),
        "stopped_early": report.stopped_early,
    }
    if report.symbolic_stop:
        payload["symbolic_stop"] = report.symbolic_stop
    if report.dim is None:
        payload["renorm_note"] = "renormalization flags require a concrete dimension"
    return payload


def render_table(report: CriticalityReport) -> str:
    """ASCII table mirroring the expansion rows, plus a summary block."""
    from .affine import format_affine
    from .expansion import render_forcing

    headers = ("k", "most singular term", "forcing beta <", "object beta <", "remainder beta <")
    body = []
    vector_rank = report.vector_rank
    for row in report.rows:
        body.append(
            (
                str(row.level),
                render_forcing(row.forcing, vector_rank),
                format_affine(row.forcing_bound.sup),
                format_affine(row.object_bound.sup),
                format_affine(row.remainder_bound.sup) if row.remainder_bound else "-",
            )
        )
    widths = [max(map(len, column)) for column in zip(headers, *body)]
    lines = [" | ".join(map(str.ljust, headers, widths)), "-+-".join("-" * w for w in widths)]
    lines.extend(" | ".join(map(str.ljust, r, widths)) for r in body)
    lines.append("")
    gain = format_affine(report.gain) if report.gain is not None else f"({report.gain_error})"
    exponent = (
        format_affine(report.scaling_exponent)
        if report.scaling_exponent is not None
        else f"({report.scaling_exponent_error})"
    )
    lines.append(f"gain per level  : {gain}")
    lines.append(f"scaling exponent: {exponent}")
    lines.append(f"classification  : {report.classification.render()}")
    flagged = sorted({name for row in report.rows for name in row.renorm})
    if report.dim is None:
        lines.append("renormalization : requires a concrete dimension")
    elif flagged:
        lines.append("renormalization : " + ", ".join(flagged))
    else:
        lines.append("renormalization : none")
    return "\n".join(lines) + "\n"


def build_envelope(command: str, config: dict, payload: dict, checks: Optional[list] = None) -> dict:
    import datetime

    doc = {
        "version": __version__,
        "command": command,
        "config": config,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    doc.update(payload)
    if checks is not None:
        doc["checks"] = checks
        doc["passed"] = all(c["passed"] for c in checks)
    return doc


def serialize_envelope(doc: dict) -> str:
    """The JSON text of `doc` with sorted keys and an indent of 2, and a newline.

    The bytes are json's with `sort_keys=True, indent=2`.  json's indented
    encoder is its pure-Python generator, which passes every chunk up
    through every level of nesting; this writer appends each chunk once.
    Strings still go through json's C escaper.  A value json cannot write,
    or a key that is not a str, raises TypeError.
    """
    from json.encoder import encode_basestring_ascii

    out: List[str] = []
    _write_json(doc, out.append, "\n", encode_basestring_ascii)
    out.append("\n")
    return "".join(out)


def _write_json(o, append, nl: str, quote) -> None:
    """Append the indented JSON of `o`; `nl` is the newline and indent of its own level."""
    if isinstance(o, dict):
        if not o:
            append("{}")
            return
        inner = nl + "  "
        comma = "," + inner
        sep = "{" + inner
        for key in sorted(o):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            value = o[key]
            if isinstance(value, str):
                append(sep + quote(key) + ": " + quote(value))
            else:
                append(sep + quote(key) + ": ")
                _write_json(value, append, inner, quote)
            sep = comma
        append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            append("[]")
            return
        inner = nl + "  "
        comma = "," + inner
        sep = "[" + inner
        for item in o:
            if isinstance(item, str):
                append(sep + quote(item))
            else:
                append(sep)
                _write_json(item, append, inner, quote)
            sep = comma
        append(nl + "]")
    elif isinstance(o, str):
        append(quote(o))
    elif o is None:
        append("null")
    elif o is True:
        append("true")
    elif o is False:
        append("false")
    elif isinstance(o, int):
        append(int.__repr__(o))
    elif isinstance(o, float):
        if o != o:
            append("NaN")
        elif o == _INF:
            append("Infinity")
        elif o == -_INF:
            append("-Infinity")
        else:
            append(float.__repr__(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def atomic_write(path: Path, data: bytes):
    """Write through a temp file and a rename, so no partial file appears."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
