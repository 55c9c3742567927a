"""Rendering and serialization of analysis reports.

Rationals travel as "p/q" strings and affine bounds as {"c0", "cd"}
pairs so golden values survive JSON exactly.  The envelope adds tool
version, config echo and a UTC timestamp; everything except the
timestamp is reproducible byte-for-byte for a fixed config.

Nothing here imports numpy or mpmath: the symbolic commands render and
write their output through this module alone.
"""

from __future__ import annotations

import datetime
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

from . import __version__
from .affine import DimExpr, RegBound, format_affine
from .expansion import CriticalityReport, ExpansionRow, render_forcing

SUITE_NAMES = ("uniqueness", "inequality", "steklov", "tychonov", "noise", "bony")


def affine_to_json(e: Optional[DimExpr]) -> Optional[dict]:
    if e is None:
        return None
    return {"c0": str(e.c0), "cd": str(e.cd)}


def affine_from_json(obj: Optional[dict]) -> Optional[DimExpr]:
    if obj is None:
        return None
    return DimExpr(Fraction(obj["c0"]), Fraction(obj["cd"]))


def report_payload(report: CriticalityReport) -> dict:
    """JSON-ready body of an analysis report."""
    rows = []
    for row in report.rows:
        terms: List[str] = []
        for t in row.forcing:
            terms.extend(t.summands(report.vector_rank))
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


def render_table(report: CriticalityReport) -> str:
    """ASCII table mirroring the expansion rows, plus a summary block."""
    headers = ("k", "most singular term", "forcing beta <", "object beta <", "remainder beta <")
    body = []
    for row in report.rows:
        body.append(
            (
                str(row.level),
                render_forcing(row.forcing, report.vector_rank),
                format_affine(row.forcing_bound.sup),
                format_affine(row.object_bound.sup),
                format_affine(row.remainder_bound.sup) if row.remainder_bound else "-",
            )
        )
    widths = [max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i]) for i in range(5)]
    lines = []
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for r in body:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
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
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def deterministic_bytes(doc: dict) -> bytes:
    """Serialization with the timestamp removed, for reproducibility checks."""
    trimmed = {k: v for k, v in doc.items() if k != "timestamp"}
    return json.dumps(trimmed, sort_keys=True).encode()


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
