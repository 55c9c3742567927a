"""Output checks.  Each returns a list of failure messages; empty means correct.

References are the hand-written values of acceptance criteria 01-05,
the identity gain per level == scaling exponent wherever the program
reports both, 2*gamma - 2 - alpha for sqg, every check of a verify
envelope, and a read-back of every written trajectory.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

F = Fraction
# criterion 01: navier_stokes (forcing, object) bounds of rows 1-4, as (c0, cd)
GOLDEN_NS = (
    ((F(-1), F(-1, 2)), (F(1), F(-1, 2))),
    ((F(1), F(-1)), (F(3), F(-1))),
    ((F(3), F(-3, 2)), (F(5), F(-3, 2))),
    ((F(5), F(-2)), (F(7), F(-2))),
)
# criteria 02 and 05: verdicts at concrete dimensions
VERDICTS = {
    ("navier_stokes", 3): "Subcritical",
    ("navier_stokes", 4): "Critical",
    ("navier_stokes", 5): "Supercritical",
    ("yang_mills", 4): "Critical",
    ("phi4", 2): "Subcritical",
    ("phi4", 3): "Subcritical",
    ("phi4", 4): "Critical",
    ("phi4", 5): "Supercritical",
}
KPZ_GAIN = (F(1, 2), F(0))  # criterion 04, at the spec's own dimension 1
PHI4_GAIN = (F(4), F(-1))  # criterion 05, symbolic


def sqg_exponent(gamma: Fraction, alpha: Fraction):
    return (2 * gamma - 2 - alpha, F(0))


_TERM = re.compile(r"([+-]?)(\d*)(d?)(?:/(\d+))?")


def parse_affine(text: str):
    """(c0, cd) of an affine expression printed like '5 - 3d/2' or '-d/2'."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty affine expression")
    c0 = cd = F(0)
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        sign, num, var, den = m.groups()
        if not (num or var):
            raise ValueError(f"cannot parse affine expression {text!r}")
        value = F(int(num) if num else 1, int(den) if den else 1)
        if sign == "-":
            value = -value
        if var:
            cd += value
        else:
            c0 += value
        pos = m.end()
    return c0, cd


def _show(pair) -> str:
    return "none" if pair is None else f"{pair[0]} + ({pair[1]})d"


def _json_affine(obj):
    return F(obj["c0"]), F(obj["cd"])


# ---------------------------------------------------------------------------
# analyze output, as printed by a fresh process


def _parse_table(text: str):
    lines = text.splitlines()
    rows, summary = [], {}
    body = iter(lines[2:])
    for line in body:
        if not line.strip():
            break
        rows.append([cell.strip() for cell in line.split(" | ")])
    for line in body:
        key, _, value = line.partition(":")
        summary[key.strip()] = value.strip()
    return rows, summary


def check_analyze(key: str, text: str) -> list:
    spec, form = key.split(".")
    problems = []
    if form == "dim3_json":
        doc = json.loads(text)
        gain = _json_affine(doc["gain"]) if doc.get("gain") else None
        exponent = parse_affine(doc["scaling_exponent"]) if doc.get("scaling_exponent") else None
        verdict = VERDICTS.get((spec, 3))
        if verdict and doc["classification"] != verdict:
            problems.append(f"classification {doc['classification']!r} != {verdict!r}")
        if not doc["rows"]:
            problems.append("no rows")
    else:
        rows, summary = _parse_table(text)
        gain_text = summary.get("gain per level", "(missing)")
        exp_text = summary.get("scaling exponent", "(missing)")
        gain = None if gain_text.startswith("(") else parse_affine(gain_text)
        exponent = None if exp_text.startswith("(") else parse_affine(exp_text)
        if "classification" not in summary or not rows:
            problems.append("table has no rows or no classification")
        if form == "table" and spec == "navier_stokes":
            got = [(parse_affine(r[2]), parse_affine(r[3])) for r in rows[:4]]
            if got != list(GOLDEN_NS):
                problems.append("golden rows differ: " + ", ".join(f"{_show(f)} / {_show(o)}" for f, o in got))
        expected = {("table", "kpz"): KPZ_GAIN, ("table", "phi4"): PHI4_GAIN}.get((form, spec))
        if form == "param" and spec == "sqg":
            expected = sqg_exponent(F(1), F(1, 2))
        if expected and (gain != expected or exponent != expected):
            problems.append(f"gain {_show(gain)} / exponent {_show(exponent)} != {_show(expected)}")
    if gain is not None and exponent is not None and gain != exponent:
        problems.append(f"gain {_show(gain)} != scaling exponent {_show(exponent)}")
    return problems


# ---------------------------------------------------------------------------
# symbolic sweep, on the in-process report


def _pair(e):
    return (e.c0, e.cd)


def check_report(item, report, serialized: str) -> list:
    _, spec, dim, levels, overrides = item
    problems = []
    gain = _pair(report.gain) if report.gain is not None else None
    exponent = _pair(report.scaling_exponent) if report.scaling_exponent is not None else None
    if gain is not None and exponent is not None and gain != exponent:
        problems.append(f"gain {_show(gain)} != scaling exponent {_show(exponent)}")
    if spec == "sqg" and "gamma" in overrides:
        expected = sqg_exponent(overrides["gamma"], overrides["alpha"])
        if exponent != expected or gain not in (None, expected):
            problems.append(f"sqg gain {_show(gain)} / exponent {_show(exponent)} != {_show(expected)}")
    if spec == "navier_stokes" and dim is None:
        got = [(_pair(r.forcing_bound.sup), _pair(r.object_bound.sup)) for r in report.rows[:4]]
        if got != list(GOLDEN_NS[: len(got)]):
            problems.append("golden rows differ: " + ", ".join(f"{_show(f)} / {_show(o)}" for f, o in got))
    if not overrides:
        verdict = VERDICTS.get((spec, dim))
        if verdict and report.classification.kind != verdict:
            problems.append(f"classification {report.classification.kind} != {verdict}")
        expected = {("kpz", 1): KPZ_GAIN, ("phi4", None): PHI4_GAIN}.get((spec, dim))
        if expected and gain not in (None, expected):
            problems.append(f"gain {_show(gain)} != {_show(expected)}")
    if json.loads(serialized)["levels"] != len(report.rows):
        problems.append("serialized envelope disagrees with the report")
    return problems


# ---------------------------------------------------------------------------
# verify commands


def check_verify(out_file: Path) -> list:
    doc = json.loads(out_file.read_text())
    failed = [c["name"] for c in doc.get("checks", []) if not c.get("passed")]
    problems = [f"check failed: {name}" for name in failed]
    if not doc.get("checks") or doc.get("passed") is not True:
        problems.append("envelope not marked passed")
    return problems


def check_noise_sample(out_dir: Path, stdout: str, dim: int, grid: int) -> list:
    import numpy as np
    from spdecrit.lab.io import read_trajectory

    problems = []
    match = re.search(r"fitted exponent: (\S+)", stdout)
    if not match or not math.isfinite(float(match.group(1))):
        problems.append("no finite fitted exponent printed")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    traj = read_trajectory(out_dir)
    if len(traj.fields) != len(manifest["times"]) or manifest["n"] != grid:
        problems.append(f"{len(traj.fields)} snapshots for {len(manifest['times'])} manifest times")
    for field in traj.fields:
        if field.grid_shape != (grid,) * dim or not np.all(np.isfinite(field.values)):
            problems.append("snapshot with wrong shape or non-finite values")
            break
    return problems
