"""Command surface: exit codes, formats, overrides, reproducibility."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import spdecrit
from spdecrit import cli
from spdecrit.report import deterministic_bytes


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_bundled_table(capsys):
    code, out, err = run(capsys, "analyze", "navier_stokes", "--levels", "4")
    assert code == 0
    assert "div(z2*z2 + z3*z1 + z1*z3)" in out
    assert "5 - 2d" in out and "7 - 2d" in out
    assert "gain per level  : 2 - d/2" in out
    assert "ConditionOnDim(d < 4)" in out


def test_analyze_path_and_json(tmp_path, capsys):
    spec_text = (
        "equation probe {\n  dimension 3;\n  unknown u: vector;\n  diffusion order 2;\n"
        "  noise stwn;\n  nonlinear { degree 2; outer_deriv 1; projector leray; }\n}\n"
    )
    path = tmp_path / "probe.spde"
    path.write_text(spec_text)
    code, out, _ = run(capsys, "analyze", str(path), "--levels", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "Subcritical"
    assert doc["rows"][0]["object"] == {"c0": "-1/2", "cd": "0"}
    assert doc["rows"][0]["forcing"] == {"c0": "-5/2", "cd": "0"}
    assert "z1*z1" in doc["rows"][1]["renorm"]


def test_analyze_sqg_param_override(capsys):
    code, out, _ = run(
        capsys,
        "analyze", "sqg", "--param", "gamma=1", "--param", "alpha=1/2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "Supercritical"
    assert doc["scaling_exponent"] == "-1/2"


def test_analyze_dim_flag(capsys):
    code, out, _ = run(capsys, "analyze", "navier_stokes", "--dim", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "Subcritical"
    assert doc["dimension"] == 3


def test_analyze_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.spde"
    bad.write_text("equation broken { dimension ; }")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert err.strip() != ""


def test_analyze_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "no_such_spec")
    assert code == 2
    assert "no spec file" in err


def test_unknown_suite_exits_2(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2


def test_verify_failure_exits_1(monkeypatch, capsys):
    def fake(name, **kwargs):
        return {"suite": name, "checks": [{"name": "forced", "passed": False}], "passed": False}

    monkeypatch.setattr(cli, "run_suite", fake)
    code, out, _ = run(capsys, "verify", "bony")
    assert code == 1
    assert "FAIL" in out


def test_verify_bony_passes(capsys):
    code, out, _ = run(capsys, "verify", "bony", "--seed", "3")
    assert code == 0
    assert "suite passed" in out


def test_verify_json_envelope(capsys):
    code, out, _ = run(capsys, "verify", "bony", "--seed", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all("name" in c and "passed" in c for c in doc["checks"])


def test_noise_sample_writes_files(tmp_path, capsys):
    out_dir = tmp_path / "noise"
    code, out, _ = run(
        capsys,
        "noise", "sample", "--dim", "1", "--grid", "512", "--seed", "42",
        "--steps", "64", "--estimate", "--out", str(out_dir),
    )
    assert code == 0
    assert "fitted exponent:" in out
    assert (out_dir / "manifest.json").exists()
    assert sorted(out_dir.glob("*.spdf"))


def test_noise_sample_repeats_identically(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        code, _, _ = run(
            capsys,
            "noise", "sample", "--dim", "1", "--grid", "256", "--seed", "9",
            "--steps", "32", "--out", str(out_dir),
        )
        assert code == 0
    files_a = sorted(p.name for p in a.iterdir())
    assert files_a == sorted(p.name for p in b.iterdir())
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_noise_sample_rejects_bad_grid(tmp_path, capsys):
    code, _, err = run(
        capsys, "noise", "sample", "--dim", "1", "--grid", "100", "--out", str(tmp_path / "x")
    )
    assert code == 2


def test_out_to_unwritable_path_exits_3(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code, _, err = run(
        capsys,
        "analyze", "navier_stokes", "--format", "json", "--out", str(blocker / "sub" / "r.json"),
    )
    assert code == 3


def test_tychonov_command(capsys):
    code, out, _ = run(capsys, "tychonov", "--alpha", "2", "--terms", "12")
    assert code == 0
    assert "PASS" in out


def test_env_seed_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPDECRIT_SEED", "123")
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        code, _, _ = run(
            capsys, "noise", "sample", "--dim", "1", "--grid", "128", "--steps", "16", "--out", str(out_dir)
        )
        assert code == 0
    assert (a / "field_00000.spdf").read_bytes() == (b / "field_00000.spdf").read_bytes()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("levels 2;\nformat json; # comment\n")
    code, out, _ = run(capsys, "analyze", "navier_stokes", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["levels"] == 2
    # flags win over the config file
    code, out, _ = run(capsys, "analyze", "navier_stokes", "--config", str(cfg), "--levels", "3")
    doc = json.loads(out)
    assert doc["levels"] == 3


def test_analyze_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "analyze", "phi4", "--format", "json", "--out", str(target)
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["gain"] == {"c0": "4", "cd": "-1"}


def test_analyze_payload_reproducible(capsys):
    docs = []
    for _ in range(2):
        code, out, _ = run(capsys, "analyze", "navier_stokes", "--levels", "4", "--format", "json")
        assert code == 0
        docs.append(json.loads(out))
    assert deterministic_bytes(docs[0]) == deterministic_bytes(docs[1])


def test_json_rows_round_trip(capsys):
    from spdecrit.dsl import load_bundled_spec
    from spdecrit.expansion import expand
    from spdecrit.report import report_payload, rows_from_payload

    report = expand(load_bundled_spec("navier_stokes"), 4)
    payload = json.loads(json.dumps(report_payload(report)))
    rebuilt = rows_from_payload(payload)
    for row, (level, forcing, obj, rem) in zip(report.rows, rebuilt):
        assert row.level == level
        assert row.forcing_bound == forcing
        assert row.object_bound == obj
        assert row.remainder_bound == rem


@pytest.mark.parametrize("dim", ["0", "-2"])
def test_analyze_bad_dim_exits_2(capsys, dim):
    code, out, err = run(capsys, "analyze", "navier_stokes", "--dim", dim)
    assert code == 2
    assert err.startswith("error: E_DIM: ")
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("uniqueness", "--dt", "0"),
        ("uniqueness", "--tmax", "0"),
        ("inequality", "--samples", "0"),
        ("noise", "--grid", "0"),
        ("steklov", "--samples", "0"),
    ],
    ids=" ".join,
)
def test_verify_zero_size_exits_2(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


def test_verify_accepts_seed_zero(capsys):
    code, out, _ = run(
        capsys, "verify", "inequality", "--n", "3", "--samples", "1000", "--seed", "0", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 0


_PROBE = """\
import sys
import spdecrit
if sys.argv[1:]:
    from spdecrit.cli import main
    code = main(sys.argv[1:])
    assert code == 0, code
print("loaded:" + ",".join(m for m in ("numpy", "mpmath") if m in sys.modules))
"""


def _lab_modules_after(tmp_path, *argv):
    """numpy/mpmath present once `main(argv)` returns in a fresh interpreter."""
    src = str(Path(spdecrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("loaded:")
    return set(filter(None, last[len("loaded:"):].split(",")))


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("--version",),
        ("analyze", "navier_stokes", "--levels", "4"),
        ("analyze", "navier_stokes", "--dim", "3", "--format", "json"),
        ("analyze", "sqg", "--param", "gamma=1", "--param", "alpha=1/2"),
        ("analyze", "navier_stokes", "--dim", "symbolic"),
        ("analyze", "phi4", "--format", "json", "--out", "report.json"),
        ("analyze", "navier_stokes", "--config", "run.cfg"),
    ],
    ids=lambda argv: " ".join(argv) or "import",
)
def test_symbolic_commands_leave_lab_unloaded(tmp_path, argv):
    (tmp_path / "run.cfg").write_text("levels 2;\nformat json;\n")
    assert _lab_modules_after(tmp_path, *argv) == set()


def test_verify_loads_lab(tmp_path):
    assert "numpy" in _lab_modules_after(tmp_path, "verify", "bony")
