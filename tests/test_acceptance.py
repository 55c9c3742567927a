"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a PASS line so a verbose run doubles as the checklist.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import closed_form_exponent, deterministic_bytes
from spdecrit import cli
from spdecrit.affine import DimExpr
from spdecrit.dsl import load_bundled_spec
from spdecrit.expansion import expand
from spdecrit.suites import (
    run_bony,
    run_inequality,
    run_noise,
    run_steklov,
    run_tychonov,
    run_uniqueness,
)

F = Fraction


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def done(self, label):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"{label} took {elapsed:.1f}s, budget {self.limit}s"
        print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)")


def _analyze_json(*argv, capsys):
    code = cli.main(["analyze", *argv, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_01_golden_table(capsys):
    budget = Budget(1.0)
    doc = _analyze_json("navier_stokes", "--levels", "4", capsys=capsys)
    expected = [
        ({"c0": "-1", "cd": "-1/2"}, {"c0": "1", "cd": "-1/2"}),
        ({"c0": "1", "cd": "-1"}, {"c0": "3", "cd": "-1"}),
        ({"c0": "3", "cd": "-3/2"}, {"c0": "5", "cd": "-3/2"}),
        ({"c0": "5", "cd": "-2"}, {"c0": "7", "cd": "-2"}),
    ]
    assert len(doc["rows"]) == 4
    for row, (forcing, obj) in zip(doc["rows"], expected):
        assert row["forcing"] == forcing
        assert row["object"] == obj
    budget.done("01 golden-table")


def test_criterion_02_criticality_classification():
    budget = Budget(1.0)

    def kind(spec, dim):
        return expand(spec.with_overrides(dim=dim), 1).classification.kind

    nse = load_bundled_spec("navier_stokes")
    assert kind(nse, 3) == "Subcritical"
    assert kind(nse, 4) == "Critical"
    assert kind(nse, 5) == "Supercritical"
    ym = load_bundled_spec("yang_mills")
    assert kind(ym, 4) == "Critical"
    budget.done("02 criticality")


def test_criterion_03_sqg_condition_grid():
    budget = Budget(5.0)
    spec = load_bundled_spec("sqg")
    for num_a in range(0, 5):  # alpha in {0, 1/4, ..., 1}
        for num_g in range(0, 7):  # gamma in {0, 1/4, ..., 3/2}
            alpha, gamma = F(num_a, 4), F(num_g, 4)
            s = spec.with_overrides(gamma=gamma, alpha=alpha)
            exponent = closed_form_exponent(s)
            assert exponent == DimExpr(2 * gamma - 2 - alpha)
            report = expand(s, 4)
            assert report.scaling_exponent == exponent
            assert report.gain == exponent
    budget.done("03 sqg-condition")


def test_criterion_04_kpz_deduction():
    budget = Budget(1.0)
    report = expand(load_bundled_spec("kpz"), 4)
    (slope_term,) = report.rows[1].forcing
    assert all(b.sup == DimExpr(F(-1, 2)) for b in slope_term.factor_bounds)
    assert report.gain == DimExpr(F(1, 2))
    assert report.gain == closed_form_exponent(report.spec)
    budget.done("04 kpz-deduction")


def test_criterion_05_phi4_gain():
    budget = Budget(1.0)
    spec = load_bundled_spec("phi4")
    report = expand(spec, 3)
    assert report.gain == DimExpr(F(4), F(-1))
    assert report.scaling_exponent == DimExpr(F(4), F(-1))
    assert closed_form_exponent(spec) == report.gain
    for d, kind in ((2, "Subcritical"), (3, "Subcritical"), (4, "Critical"), (5, "Supercritical")):
        assert expand(spec.with_overrides(dim=d), 3).classification.kind == kind
    budget.done("05 phi4-gain")


def test_criterion_06_proof_algebra():
    budget = Budget(30.0)
    result = run_inequality(n=None, samples=1_000_000, seed=7)
    assert result["passed"], result
    assert len([c for c in result["checks"] if "gap nonnegative" in c["name"]]) == 4
    budget.done("06 proof-algebra")


def test_criterion_07_uniqueness_experiment():
    budget = Budget(60.0)
    result = run_uniqueness(n=3, dim=1, grid=256, tmax=1.0, dt=1.0e-4)
    assert result["passed"], result
    budget.done("07 uniqueness")


def test_criterion_08_steklov_lemma():
    budget = Budget(10.0)
    result = run_steklov(seed=0, samples=100)
    assert result["passed"], result
    budget.done("08 steklov")


def test_criterion_09_tychonov():
    budget = Budget(10.0)
    result = run_tychonov(alpha=2, terms=30, region=(0.5, 1.0, -1.0, 1.0))
    assert result["passed"], result
    budget.done("09 tychonov")


def test_criterion_10_noise_regularity():
    budget = Budget(60.0)
    result = run_noise(seed=0, grid=4096, ensembles=16)
    assert result["passed"], result
    exponent = next(c for c in result["checks"] if "smoothness exponent" in c["name"])
    assert 0.35 <= exponent["value"] <= 0.60
    budget.done("10 noise-regularity")


def test_criterion_11_bony_partition():
    budget = Budget(10.0)
    result = run_bony(seed=0)
    assert result["passed"], result
    budget.done("11 bony-partition")


def test_criterion_12_determinism(tmp_path, capsys):
    budget = Budget(60.0)

    def payload(argv):
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return deterministic_bytes(json.loads(out))

    analyze = ["analyze", "navier_stokes", "--levels", "4", "--format", "json"]
    assert payload(analyze) == payload(analyze)
    sqg = ["analyze", "sqg", "--param", "gamma=1", "--param", "alpha=1/2", "--format", "json"]
    assert payload(sqg) == payload(sqg)
    verify = ["verify", "bony", "--seed", "11", "--format", "json"]
    assert payload(verify) == payload(verify)
    ineq = ["verify", "inequality", "--n", "3", "--samples", "20000", "--seed", "5", "--format", "json"]
    assert payload(ineq) == payload(ineq)

    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        code = cli.main(
            ["noise", "sample", "--dim", "1", "--grid", "256", "--seed", "4", "--steps", "32", "--out", str(d)]
        )
        capsys.readouterr()
        assert code == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    budget.done("12 determinism")
