"""Command surface: exit codes, formats, overrides, reproducibility."""

import importlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import deterministic_bytes
import spdecrit
from spdecrit import cli
from spdecrit.dsl import BUNDLED_SPECS


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


# Two terms with different outer orders tie at level 2, so each is wrapped
# on its own: D(...) and D^k(...) of a scalar, and D^k[...] of a factor.
TIE_SPEC = """
equation tie {
  dimension 1;
  unknown u: scalar;
  diffusion order 2;
  noise stwn;
  nonlinear { degree 2; inner_deriv 1/2, 1/2; outer_deriv 1; }
  nonlinear { degree 2; outer_deriv 2; }
}
"""


def test_analyze_renders_a_tie_of_terms_with_different_outer_orders(tmp_path, capsys):
    path = tmp_path / "tie.spde"
    path.write_text(TIE_SPEC)
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, err) == (0, "")
    assert out == (
        "k | most singular term                  | forcing beta < | object beta < | remainder beta <\n"
        "--+-------------------------------------+----------------+---------------+-----------------\n"
        "1 | xi                                  | -3/2           | 1/2           | 1               \n"
        "2 | D(D^1/2[z1]*D^1/2[z1]) + D^2(z1*z1) | -1             | 1             | 3/2             \n"
        "\n"
        "gain per level  : 1/2\n"
        "scaling exponent: 1/2\n"
        "classification  : Subcritical\n"
        "renormalization : D^1/2[z1]*D^1/2[z1]\n"
    )
    code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
    rows = json.loads(out)["rows"]
    assert [row["terms"] for row in rows] == [["xi"], ["D^1/2[z1]*D^1/2[z1]", "z1*z1"]]
    assert [row["renorm"] for row in rows] == [[], ["D^1/2[z1]*D^1/2[z1]"]]


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


# a spec with a number at each of its seven numeric positions, and the
# (line, column) of each; all defaults give a spec that analyzes
_NUMBERS = (
    "equation probe {{\n  dimension {};\n  unknown u: scalar;\n  diffusion order {};\n  aux_z1 order {};\n"
    "  noise stwn lift {};\n  nonlinear {{ degree {}; inner_deriv {}, 0, 0; outer_deriv {}; }}\n}}\n"
)
_NUMBER_DEFAULTS = ("2", "2", "2", "0", "3", "0", "0")
_NUMBER_PLACES = {
    "dimension": (2, 13), "diffusion order": (4, 19), "aux_z1 order": (5, 16), "noise lift": (6, 19),
    "degree": (7, 22), "inner order": (7, 37), "outer order": (7, 58),
}


@pytest.mark.parametrize("place", range(7), ids=list(_NUMBER_PLACES))
def test_analyze_refuses_a_literal_past_the_digit_limit(tmp_path, capsys, place):
    """int() converts at most 4,300 digits; one more is a syntax error at
    the literal, not a traceback, and the digits are not echoed."""
    numbers = list(_NUMBER_DEFAULTS)
    numbers[place] = "9" * 4301
    path = tmp_path / "big.spde"
    path.write_text(_NUMBERS.format(*numbers))
    code, out, err = run(capsys, "analyze", str(path))
    line, column = list(_NUMBER_PLACES.values())[place]
    assert (code, out) == (2, "")
    assert err == f"error: {line}:{column}: number of 4301 characters has too many digits\n"
    path.write_text(_NUMBERS.format(*_NUMBER_DEFAULTS))
    assert run(capsys, "analyze", str(path))[0] == 0


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
    assert out.splitlines()[0] == "fitted exponent: 0.5046"
    assert (out_dir / "manifest.json").exists()
    assert sorted(out_dir.glob("*.spdf"))


def test_noise_sample_white_prints_its_fitted_exponent(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "noise", "sample", "--kind", "white", "--dim", "1", "--grid", "512", "--seed", "42",
        "--estimate", "--out", str(tmp_path / "white"),
    )
    assert code == 0
    assert out.splitlines()[0] == "fitted exponent: -0.3534"


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
    from oracles import rows_from_payload
    from spdecrit.report import report_payload

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
        ("uniqueness", "--grid", "0"),
        ("uniqueness", "--grid", "-64"),
        ("uniqueness", "--tmax", "1e308", "--dt", "1e-10"),
        ("uniqueness", "--dt", "1e-320"),
    ],
    ids=" ".join,
)
def test_verify_zero_size_exits_2(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--grid", "-64"), "--grid '-64': expects a power of two >= 4"),
        (("--tmax", "1e308", "--dt", "1e-10"), "--tmax 1e+308 --dt 1e-10: the dt/2 run marches inf steps, over the budget of 500000"),
        (("--dt", "1e-320"), "--tmax 1.0 --dt 1e-320: the dt/2 run marches inf steps, over the budget of 500000"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else "",
)
def test_verify_uniqueness_names_a_bad_grid_or_step_count(capsys, argv, message):
    code, out, err = run(capsys, "verify", "uniqueness", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--tmax", "1e20"), "--tmax 1e+20 --dt 0.0001: the dt/2 run marches 2e+24 steps"),
        (("--tmax", "1e300", "--dt", "1e-4"), "--tmax 1e+300 --dt 0.0001: the dt/2 run marches 2e+304 steps"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else "",
)
def test_verify_uniqueness_refuses_rows_past_an_array_before_allocating(tmp_path, capsys, argv, message):
    # numpy once refused these with "Maximum allowed dimension exceeded",
    # which names no flag
    code, out, err = run(capsys, "verify", "uniqueness", *argv, "--out", str(tmp_path / "F"))
    assert (code, out) == (2, "")
    assert err == f"error: {message}, over the budget of 500000\n"
    assert "Traceback" not in err
    assert not (tmp_path / "F").exists()


def test_verify_accepts_seed_zero(capsys):
    code, out, _ = run(
        capsys, "verify", "inequality", "--n", "3", "--samples", "1000", "--seed", "0", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 0


_PROBE = """\
import sys
import spdecrit
code = 0
if sys.argv[1:]:
    from spdecrit.cli import main
    code = main(sys.argv[1:])
print(f"exit:{code}")
print("loaded:" + ",".join(m for m in ("numpy", "mpmath") if m in sys.modules))
"""


def _lab_modules_after(tmp_path, *argv, code=0):
    """numpy/mpmath present once `main(argv)` returns `code` in a fresh interpreter."""
    src = str(Path(spdecrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2] == f"exit:{code}", proc.stderr
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


def test_verify_refuses_an_unread_option_before_the_lab_loads(tmp_path):
    assert _lab_modules_after(tmp_path, "verify", "bony", "--samples", "10", code=2) == set()


_HALVES = ("mpmath", "spdecrit.dsl", "spdecrit.expansion", "spdecrit.rules", "spdecrit.affine")
_HALVES_PROBE = """\
import sys
from spdecrit.cli import main
code = main(sys.argv[2:])
assert code == 0, code
print("loaded:" + ",".join(m for m in sys.argv[1].split(",") if m in sys.modules))
"""


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (("verify", "bony"), set()),
        (("verify", "inequality", "--samples", "10"), set()),
        (("noise", "sample", "--dim", "1", "--grid", "64", "--steps", "4", "--out", "out"), set()),
        (("verify", "tychonov", "--terms", "4"), {"mpmath"}),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else "",
)
def test_lab_commands_leave_the_symbolic_half_unloaded(tmp_path, argv, loaded):
    src = str(Path(spdecrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _HALVES_PROBE, ",".join(_HALVES), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("loaded:")
    assert set(filter(None, last[len("loaded:"):].split(","))) == loaded


_LAB_MODULES = ("spdecrit.suites", "spdecrit.lab.fields", "spdecrit.lab.noise", "spdecrit.lab.io", "spdecrit.lab.heat",
                "spdecrit.lab.tychonov")


@pytest.mark.parametrize(
    "argv",
    [
        ("noise", "sample", "--dim", "1", "--grid", "64", "--steps", "4", "--out", "out"),
        ("noise", "sample", "--dim", "2", "--grid", "64", "--kind", "white", "--estimate", "--out", "out"),
    ],
    ids=lambda v: " ".join(v),
)
def test_noise_sample_loads_only_fields_noise_and_io(tmp_path, argv):
    src = str(Path(spdecrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _HALVES_PROBE, ",".join(_LAB_MODULES), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert set(filter(None, last[len("loaded:"):].split(","))) == {
        "spdecrit.lab.fields", "spdecrit.lab.noise", "spdecrit.lab.io"}


@pytest.mark.parametrize(
    "name,module",
    [
        ("load_bundled_spec", "spdecrit.dsl"),
        ("parse_spec", "spdecrit.dsl"),
        ("validate_spec", "spdecrit.dsl"),
        ("expand", "spdecrit.expansion"),
    ],
)
def test_symbolic_entry_points_look_up_their_module_when_called(monkeypatch, name, module):
    """A rebinding in the defining module after import, as a tracer makes, is what runs."""
    calls = []
    monkeypatch.setattr(importlib.import_module(module), name, lambda *a, **k: calls.append((a, k)) or "patched")
    forward = getattr(cli, name)
    assert forward.__name__ == name and forward.__module__ == "spdecrit.cli"
    assert forward("x", key=1) == "patched"
    assert calls == [(("x",), {"key": 1})]


_ENVELOPE_MODULES = ("json", "datetime")
_ENVELOPE_PROBE = """\
import sys
start = set(sys.modules)
from spdecrit.cli import main
code = main(sys.argv[2:])
assert code == 0, code
names = sys.argv[1].split(",")
print("start:" + ",".join(m for m in names if m in start))
print("loaded:" + ",".join(m for m in names if m in sys.modules and m not in start))
"""


@pytest.mark.parametrize(
    "argv,loads",
    [
        (("analyze", "navier_stokes"), False),
        (("analyze", "sqg", "--param", "gamma=1", "--param", "alpha=1/2"), False),
        (("analyze", "navier_stokes", "--format", "json"), True),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else "",
)
def test_only_the_json_form_of_analyze_loads_json_and_datetime(tmp_path, argv, loads):
    src = str(Path(spdecrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _ENVELOPE_PROBE, ",".join(_ENVELOPE_MODULES), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    start, loaded = (set(filter(None, line.partition(":")[2].split(","))) for line in proc.stdout.splitlines()[-2:])
    assert loaded == (set(_ENVELOPE_MODULES) - start if loads else set())


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "phi4", "--levels", "4"),
        ("analyze", "navier_stokes", "--levels", "4", "--dim", "3", "--format", "json"),
        ("analyze", "sqg", "--levels", "4", "--param", "gamma=1", "--param", "alpha=1/2"),
    ],
    ids=" ".join,
)
def test_analyze_loads_neither_dataclasses_nor_inspect(tmp_path, argv):
    # the records are NamedTuples: building them needs neither module
    src = str(Path(spdecrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _ENVELOPE_PROBE, "dataclasses,inspect", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded:"


_JSON_WRITERS = [
    *((("analyze", spec, "--format", "json"), f"{spec}.json") for spec in sorted(BUNDLED_SPECS)),
    *(
        (("verify", suite, *flags, "--seed", "1", "--format", "json"), f"{suite}.json")
        for suite, flags in [
            ("inequality", ("--n", "3", "--samples", "1000")),
            ("uniqueness", ("--grid", "16", "--tmax", "0.01", "--dt", "1e-3")),
            ("steklov", ("--samples", "2")),
            ("tychonov", ("--terms", "4")),
            ("noise", ("--grid", "64", "--ensembles", "2")),
            ("bony", ()),
        ]
    ),
    (("noise", "sample", "--dim", "1", "--grid", "64", "--steps", "4", "--seed", "3"), "sample/manifest.json"),
    (("noise", "sample", "--dim", "2", "--grid", "16", "--kind", "white", "--seed", "3"), "sample/manifest.json"),
]


@pytest.mark.parametrize("argv,written", _JSON_WRITERS, ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_cli_json_files_are_json_indented_bytes(tmp_path, argv, written):
    out = tmp_path / written.split("/")[0]
    assert cli.main([*argv, "--out", str(out)]) in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    text = (tmp_path / written).read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("grid", ["8", "16", "32"])
def test_verify_noise_checks_fit_window_before_sampling(capsys, monkeypatch, grid):
    from spdecrit.lab import noise as ln

    calls = []
    monkeypatch.setattr(ln, "solve_z1_mild_batch", lambda *a, **k: calls.append(a))
    code, out, err = run(capsys, "verify", "noise", "--grid", grid)
    assert code == 2
    assert err.startswith("error: ") and ("dyadic blocks" in err or "window" in err)
    assert out == ""
    assert calls == []


@pytest.mark.parametrize(
    "argv,unread",
    [
        (("bony", "--samples", "0"), ["--samples"]),
        (("tychonov", "--grid", "0", "--dt", "-1"), ["--grid", "--dt"]),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else "",
)
def test_verify_rejects_flags_the_suite_does_not_read(capsys, argv, unread):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert argv[0] in err
    assert all(flag in err for flag in unread)


@pytest.mark.parametrize("item,named", [("samples 5;", "--samples"), ("levels 2;", "levels")])
def test_verify_rejects_config_keys_the_suite_does_not_read(tmp_path, capsys, item, named):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(item + "\nformat json;\n")
    code, out, err = run(capsys, "verify", "bony", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "bony" in err and named in err


_UNREAD = [
    (("bony",), "samples 10;", "error: verify bony does not read --samples"),
    (("tychonov",), "grid 64;\nsamples 3;", "error: verify tychonov does not read --samples, --grid"),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("argv,items,message", _UNREAD, ids=[m for _, _, m in _UNREAD])
def test_verify_unread_option_messages(tmp_path, capsys, source, argv, items, message):
    given = []
    if source == "flag":  # the flags in the order the config lists them
        for item in items.split("\n"):
            name, value = item.rstrip(";").split()
            given += [f"--{name}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(items + "\n")
        given = ["--config", str(cfg)]
    code, out, err = run(capsys, "verify", *argv, *given)
    assert (code, out, err) == (2, "", message + "\n")


def test_verify_echoes_the_options_the_config_gave(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SPDECRIT_SEED", raising=False)
    monkeypatch.setattr(cli, "run_suite", lambda name, **options: {"suite": name, "checks": [], "passed": True})
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid 256;\n")
    code, out, _ = run(capsys, "verify", "noise", "--config", str(cfg), "--ensembles", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["config"] == {"grid": 256, "ensembles": 4, "seed": 0, "suite": "noise"}


@pytest.mark.parametrize("suite", cli.SUITE_NAMES)
def test_verify_passes_each_runner_its_table(monkeypatch, suite):
    monkeypatch.delenv("SPDECRIT_SEED", raising=False)
    calls = []
    monkeypatch.setattr(cli, "run_suite", lambda name, **options: calls.append((name, options)) or {
        "suite": name, "checks": [], "passed": True})
    assert cli.main(["verify", suite]) == 0
    want = {name: 0 if name == "seed" else default for name, (_, default) in cli._SUITES[suite].items()}
    assert calls == [(suite, want)]


def test_verify_looks_up_the_runner_when_called(monkeypatch, capsys):
    """A rebinding of `suites.run_<suite>` after import, as a tracer makes, is what runs."""
    from spdecrit import suites

    calls = []
    monkeypatch.setattr(suites, "run_bony", lambda **options: calls.append(options) or {
        "suite": "bony", "checks": [], "passed": True})
    code, out, _ = run(capsys, "verify", "bony", "--seed", "3")
    assert (code, out) == (0, "suite passed\n")
    assert calls == [{"seed": 3}]


def test_verify_tychonov_accepts_seed(capsys):
    code, out, _ = run(capsys, "verify", "tychonov", "--seed", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 3


_INVERSE_FFTS = ("ifft", "ifftn", "irfft", "irfftn")


def _count_inverse_points(monkeypatch, keep=lambda a: True):
    """Grid points returned by numpy's inverse FFTs from now on (points, not calls)."""
    import numpy as np

    points = []
    for name in _INVERSE_FFTS:
        real = getattr(np.fft, name)

        def counting(a, *args, _real=real, **kwargs):
            out = _real(a, *args, **kwargs)
            if keep(out):
                points.append(out.size)
            return out

        monkeypatch.setattr(np.fft, name, counting)
    return points


def test_noise_sample_inverse_transforms_only_what_it_writes(tmp_path, capsys, monkeypatch):
    points = _count_inverse_points(monkeypatch)
    out_dir = tmp_path / "run"
    code, _, _ = run(
        capsys, "noise", "sample", "--dim", "1", "--grid", "256", "--steps", "32", "--out", str(out_dir)
    )
    assert code == 0
    written = len(list(out_dir.glob("*.spdf")))
    assert written == 9  # every fourth of the 33 rows
    # the written rows and nothing else: final() is never read without --estimate
    assert sum(points) == written * 256


@pytest.mark.parametrize("steps,rows", [("100", 11), ("37", 38), ("16", 9)])
def test_noise_sample_thins_by_a_divisor_of_the_steps(tmp_path, capsys, steps, rows):
    from spdecrit.lab import io as lio

    out_dir = tmp_path / "run"
    code, _, _ = run(
        capsys, "noise", "sample", "--dim", "1", "--grid", "32", "--steps", steps, "--out", str(out_dir)
    )
    assert code == 0
    assert len(list(out_dir.glob("*.spdf"))) == rows
    traj = lio.read_trajectory(out_dir)
    assert traj.times[-1] == pytest.approx(int(steps) * 2.5e-3)
    assert traj.dt == pytest.approx(int(steps) // (rows - 1) * 2.5e-3)


def test_stride_is_the_largest_divisor_up_to_an_eighth():
    def brute(steps):
        return max(d for d in range(1, max(1, steps // 8) + 1) if steps % d == 0)

    for steps in range(1, 1200):
        assert cli._stride(steps) == brute(steps), steps
    for steps in (2 * 1_000_003, 7 * 1_000_003, 8 * 1_000_003, 16 * 1_000_003):
        assert cli._stride(steps) == brute(steps), steps
    assert cli._stride(1_000_003**2) == 1_000_003  # its divisors are 1, p and p^2
    start = time.monotonic()
    assert cli._stride(10**12) == 10**12 // 8
    assert cli._stride(999_999_000_001) == 1  # prime: every row
    assert cli._stride(10**30) == 10**30 // 8
    assert time.monotonic() - start < 2.0


def test_noise_sample_huge_step_count_writes_nine_rows(tmp_path, capsys):
    from spdecrit.lab import io as lio

    out_dir = tmp_path / "run"
    start = time.monotonic()
    code, out, err = run(
        capsys, "noise", "sample", "--grid", "64", "--steps", "100000000", "--out", str(out_dir)
    )
    assert (code, err) == (0, "")
    assert time.monotonic() - start < 5.0
    assert len(list(out_dir.glob("*.spdf"))) == 9
    traj = lio.read_trajectory(out_dir)
    assert traj.dt == 2.5e-3 * 12_500_000
    assert traj.times.tolist() == [k * 2.5e-3 for k in range(0, 100_000_001, 12_500_000)]


@pytest.mark.parametrize(
    "dim,grid,steps,stride", [("1", "256", "32", 4), ("2", "16", "100", 10), ("1", "32", "37", 1)]
)
def test_noise_sample_solves_one_exact_step_per_written_row(tmp_path, capsys, monkeypatch, dim, grid, steps, stride):
    import numpy as np

    from spdecrit.lab import io as lio
    from spdecrit.lab import values_of
    from spdecrit.lab import noise as ln

    solves = []
    solve = ln.solve_z1_mild

    def recording(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ln, "solve_z1_mild", recording)
    out_dir = tmp_path / "run"
    code, _, _ = run(
        capsys, "noise", "sample", "--dim", dim, "--grid", grid, "--steps", steps, "--seed", "5", "--out", str(out_dir)
    )
    assert code == 0
    shape = (int(grid),) * int(dim)
    assert solves == [(int(dim), shape, 2.5e-3 * stride, int(steps) // stride, 5)]
    want = solve(int(dim), shape, 2.5e-3 * stride, int(steps) // stride, 5)
    got = lio.read_trajectory(out_dir)
    want_values = [values_of(row) for row in want]
    assert np.array_equal(np.stack([f.values for f in got.fields]), np.stack(want_values))
    # times and dt as a march at 2.5e-3 thinned to every stride-th row has them
    assert got.times.tolist() == (np.arange(int(steps) + 1) * 2.5e-3)[::stride].tolist()
    assert got.dt == 2.5e-3 * stride


def test_verify_noise_reads_z1_after_one_exact_step(monkeypatch):
    from spdecrit import suites
    from spdecrit.lab import noise as ln

    calls = []
    batch = ln.solve_z1_mild_batch

    def recording(dim, grid_shape, dt, steps, seeds, **kwargs):
        calls.append((tuple(grid_shape), dt, steps, len(seeds)))
        return batch(dim, grid_shape, dt, steps, seeds, **kwargs)

    monkeypatch.setattr(ln, "solve_z1_mild_batch", recording)
    suites.run_noise(seed=0, grid=64, ensembles=20)
    # the roughness members, on the check's own grid
    assert [call[1:] for call in calls if call[0] == (64,)] == [(1.0, 1, 16), (1.0, 1, 4)]


def test_stationary_noise_section_reads_spectra_only(monkeypatch):
    from spdecrit import suites
    from spdecrit.lab import noise as ln

    batches = []
    batch = ln.solve_z1_mild_batch

    def recording(dim, grid_shape, dt, steps, seeds, **kwargs):
        batches.append((tuple(grid_shape), steps, len(seeds)))
        return batch(dim, grid_shape, dt, steps, seeds, **kwargs)

    monkeypatch.setattr(ln, "solve_z1_mild_batch", recording)
    # the stationary section alone runs on 32 points; the rest here on 64 or 256
    points = _count_inverse_points(monkeypatch, keep=lambda a: a.shape[-1] == 32)
    suites.run_noise(seed=0, grid=64, ensembles=1)
    # its 8 solves march as one stack
    assert [b for b in batches if b[0] == (32,)] == [((32,), 2400, 8)]
    assert sum(points) == 0


def test_analyze_high_degree_many_levels_finishes(tmp_path):
    """phi4 at degree 9 over 32 levels meets ~22k products; the exhaustive
    enumeration of every product of z1..z32 did not finish in 60 s."""
    src = str(Path(spdecrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "spdecrit.cli", "analyze", "phi4", "--param", "n=9", "--levels", "32"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert "gain per level  : 10 - 4d" in proc.stdout
    assert elapsed < 20.0, f"took {elapsed:.1f}s, budget 20s"


@pytest.mark.parametrize("n,code", [("32", 0), ("33", 2)])
def test_analyze_degree_cap(capsys, n, code):
    got, out, err = run(capsys, "analyze", "phi4", "--param", f"n={n}", "--levels", "2")
    assert got == code
    if code:
        assert out == ""
        assert err.startswith("error: E_BAD_DEGREE")


@pytest.mark.parametrize("param", ["gamma=1/0", "alpha=2/0", "gamma=abc"])
def test_analyze_bad_param_value_exits_2(capsys, param):
    code, out, err = run(capsys, "analyze", "sqg", "--param", param)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: --param {param!r}: ")


def _noise_or_suite_calls(monkeypatch):
    """Record every suite run and every noise solve instead of running them."""
    from spdecrit.lab import noise as ln

    calls = []
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(ln, "solve_z1_mild", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(ln, "sample_spatial_white", lambda *a, **k: calls.append(a))
    return calls


@pytest.mark.parametrize(
    "argv,item,message",
    [
        (("analyze", "phi4"), "samples 5;", "error: analyze does not read config key samples"),
        (("noise", "sample"), "levels 3;", "error: noise sample does not read config key levels"),
        (("noise", "sample"), "format json;", "error: noise sample does not read config key format"),
        (("verify", "bony"), "levels 3;", "error: verify bony does not read config key levels"),
        (("analyze", "phi4"), "format xml;", "error: --format 'xml': expects table or json"),
        (("verify", "bony"), "format xml;", "error: --format 'xml': expects table or json"),
    ],
    ids=["analyze-samples", "noise-levels", "noise-format", "verify-levels", "analyze-xml", "verify-xml"],
)
def test_every_command_checks_its_config_keys_and_values(tmp_path, capsys, monkeypatch, argv, item, message):
    calls = _noise_or_suite_calls(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(item + "\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 2
    assert out == ""
    assert err.strip() == message
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv,name,value",
    [
        (("analyze", "phi4"), "levels", "abc"),
        (("analyze", "phi4"), "dim", "three"),
        (("verify", "tychonov"), "region", "0.5,1,-1"),
        (("verify", "uniqueness"), "dt", "1/0"),
        (("noise", "sample"), "kind", "pink"),
        (("noise", "sample"), "grid", "4k"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_bad_value_reads_the_same_from_flag_and_config(tmp_path, capsys, monkeypatch, argv, name, value):
    calls = _noise_or_suite_calls(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} {value};\n")
    errors = []
    for source in ([f"--{name}", value], ["--config", str(cfg)]):
        code, out, err = run(capsys, *argv, *source, "--out", str(tmp_path / "out"))
        assert code == 2
        assert out == ""
        errors.append(err)
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"error: --{name} {value!r}: ")
    assert calls == []


@pytest.mark.parametrize(
    "given,named",
    [
        (("--dt", "-5"), ["--dt"]),
        (("--steps", "10"), ["--steps"]),
        (("--steps", "10", "--dt", "0.1"), ["--steps", "--dt"]),
        ("dt 0.1;", ["--dt"]),
        ("steps 10;\ndt 0.1;", ["--steps", "--dt"]),
    ],
    ids=["flag-dt", "flag-steps", "flag-both", "config-dt", "config-both"],
)
def test_noise_sample_white_refuses_steps_and_dt(tmp_path, capsys, monkeypatch, given, named):
    calls = _noise_or_suite_calls(monkeypatch)
    if isinstance(given, str):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(given)
        given = ("--config", str(cfg))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "noise", "sample", "--kind", "white", *given, "--out", str(out_dir))
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: noise sample --kind white does not read {', '.join(named)}"
    assert calls == []
    assert not out_dir.exists()


def test_noise_sample_white_still_runs_without_steps(tmp_path, capsys):
    code, out, _ = run(
        capsys, "noise", "sample", "--kind", "white", "--dim", "1", "--grid", "64", "--out", str(tmp_path / "w")
    )
    assert code == 0
    assert len(list((tmp_path / "w").glob("*.spdf"))) == 1


def test_env_seed_is_read_only_without_a_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPDECRIT_SEED", "abc")
    verify = ("verify", "inequality", "--n", "3", "--samples", "1000", "--format", "json")
    code, out, _ = run(capsys, *verify, "--seed", "3")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 3
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed 4;\n")
    code, out, _ = run(capsys, *verify, "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 4
    sample = ("noise", "sample", "--dim", "1", "--grid", "64", "--steps", "8")
    code, _, _ = run(capsys, *sample, "--seed", "3", "--out", str(tmp_path / "n"))
    assert code == 0
    # with no seed given, the bad variable is still an error
    for argv in (verify, (*sample, "--out", str(tmp_path / "m"))):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.strip() == "error: SPDECRIT_SEED must be an integer, got 'abc'"


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("spdecrit ")]


def test_readme_lists_commands():
    commands = _readme_commands()
    assert len(commands) >= 10
    assert any(line.startswith("spdecrit tychonov ") for line in commands)


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_parses(line):
    import shlex

    args = cli._build_parser().parse_args(cli._expand_alias(shlex.split(line)[1:]))
    assert callable(args.func)
    if args.command == "verify":
        assert args.suite in cli.SUITE_NAMES


def _readme_options():
    """The README's options table, as command -> (options cell, defaults cell),
    and the paragraph on each suite's own options, on one line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Options and config files", 1)[1].split("\n### ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            command, options, defaults = (cell.strip() for cell in line.strip("|").split("|"))
            rows[command.strip("`")] = (options, defaults)
    return rows, " ".join(section.split("Each suite reads", 1)[1].split())


def _shown(default):
    """A suite default as the README writes it."""
    if default is None:
        return "none"
    if isinstance(default, tuple):
        return "`" + ",".join(map(repr, default)) + "`"
    return repr(default)


def test_readme_options_follow_the_cli_tables():
    rows, paragraph = _readme_options()
    commands = {"analyze SPEC": cli._ANALYZE, "noise sample": cli._NOISE_SAMPLE, "verify SUITE": {**cli._SEED, **cli._RENDER}}
    for command, table in commands.items():
        assert all(f"`{name}`" in rows[command][0] for name in table), command
    assert sorted(rows) == sorted([*commands, *(f"verify {suite}" for suite in cli.SUITE_NAMES)])
    starts = sorted((paragraph.index(f"`{suite}`"), suite) for suite in cli.SUITE_NAMES)
    for (start, suite), (end, _) in zip(starts, starts[1:] + [(len(paragraph), None)]):
        own = {name: default for name, (_, default) in cli._SUITES[suite].items() if name != "seed"}
        assert rows[f"verify {suite}"] == (
            ", ".join(f"`{name}`" for name in own) or "nothing else", ", ".join(map(_shown, own.values()))
        )
        assert all(f"`{name}` ({_shown(default)}" in paragraph[start:end] for name, default in own.items()), suite


def test_verify_flags_are_the_suite_tables():
    """The parser's verify flags are every suite's options, the seed and the render options."""
    union = {name for table in cli._SUITES.values() for name in table}
    assert sorted(cli._VERIFY) == sorted(union | {"seed"} | set(cli._RENDER))
    assert len(set(cli._VERIFY)) == len(cli._VERIFY)


def test_tychonov_alias_prints_what_verify_tychonov_prints(capsys):
    import re

    flags = ("--alpha", "2", "--terms", "12", "--format", "json")
    outs = []
    for argv in (("tychonov", *flags), ("verify", "tychonov", *flags)):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        outs.append(re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out))
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["command"] == "verify"


_REGION_ERROR = "expects finite t0,t1,x0,x1 with 0 < t0 < t1 and x0 < x1"
_REJECTED_UP_FRONT = [
    (("verify", "inequality", "--seed", "-1"), "error: --seed '-1': expects a non-negative integer"),
    (("noise", "sample", "--seed", "-1"), "error: --seed '-1': expects a non-negative integer"),
    (
        ("noise", "sample", "--dim", "1", "--grid", "64", "--dt", "nan", "--steps", "8"),
        "error: --dt 'nan': expects a positive finite value",
    ),
    (("noise", "sample", "--dt", "inf"), "error: --dt 'inf': expects a positive finite value"),
    (("noise", "sample", "--steps", "0"), "error: --steps '0': expects a positive finite value"),
    (("verify", "tychonov", "--region", "nan,1,-1,1"), f"error: --region 'nan,1,-1,1': {_REGION_ERROR}"),
    (("verify", "tychonov", "--region", "1,0.5,-1,1"), f"error: --region '1,0.5,-1,1': {_REGION_ERROR}"),
    (("verify", "tychonov", "--region", "0,1,-1,1"), f"error: --region '0,1,-1,1': {_REGION_ERROR}"),
    (("verify", "tychonov", "--region", "0.5,1,1,1"), f"error: --region '0.5,1,1,1': {_REGION_ERROR}"),
    (("verify", "tychonov", "--region", "0.5,1,-inf,1"), f"error: --region '0.5,1,-inf,1': {_REGION_ERROR}"),
    (("noise", "sample", "--dim", "3"), "error: --dim '3': expects 1 or 2"),
    # a grid tuple of this length would not fit in memory
    (("noise", "sample", "--dim", "1000000000000"), "error: --dim '1000000000000': expects 1 or 2"),
]


@pytest.mark.parametrize("argv,message", _REJECTED_UP_FRONT, ids=[" ".join(a) for a, _ in _REJECTED_UP_FRONT])
def test_bad_seed_dt_and_region_exit_2_before_running(tmp_path, capsys, monkeypatch, argv, message):
    calls = _noise_or_suite_calls(monkeypatch)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 2
    assert out == ""
    assert err.strip() == message
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_bad_seed_dt_and_region_leave_the_lab_unloaded(tmp_path):
    probe = (
        "import json, sys\n"
        "from spdecrit.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps({'codes': codes, 'numpy': 'numpy' in sys.modules}))\n"
    )
    argvs = [[*argv, "--out", str(tmp_path / "out")] for argv, _ in _REJECTED_UP_FRONT]
    src = str(Path(spdecrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(argvs)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert json.loads(proc.stdout) == {"codes": [2] * len(argvs), "numpy": False}
    assert proc.stderr.splitlines() == [message for _, message in _REJECTED_UP_FRONT]


def test_negative_env_seed_exits_2(tmp_path, capsys, monkeypatch):
    calls = _noise_or_suite_calls(monkeypatch)
    monkeypatch.setenv("SPDECRIT_SEED", "-1")
    for argv in (("verify", "bony"), ("noise", "sample", "--out", str(tmp_path / "n"))):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.strip() == "error: SPDECRIT_SEED must not be negative, got '-1'"
    assert calls == []


def test_verify_table_prints_plain_floats(capsys):
    code, out, _ = run(capsys, "verify", "tychonov", "--terms", "6")
    assert code == 0
    assert "np.float64" not in out
    assert "PASS  ten more terms shrink the residual  [[" in out


def test_checks_store_plain_python_values():
    import numpy as np

    from spdecrit.suites import _check

    entry = _check("c", True, value={"m=2": np.float64(0.5)})
    assert type(entry["value"]["m=2"]) is float
    entry = _check("c", True, value=(np.float64(1.5), np.float32(2.0)))
    assert entry["value"] == [1.5, 2.0] and all(type(v) is float for v in entry["value"])
    assert type(_check("c", True, value=np.float64(3.0))["value"]) is float


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--terms", "400"), "error: --terms 400: the series at --alpha 2 overflows a double"),
        (
            ("--region", "0.5,1,-1e300,1e300"),
            "error: --alpha 2 --terms 30 --region 0.5,1.0,-1e+300,1e+300: the residual bound overflows a double",
        ),
        (
            ("--alpha", "20"),
            "error: --alpha 20 --terms 30 --region 0.5,1.0,-1.0,1.0: the residual bound overflows a double",
        ),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else "",
)
def test_tychonov_overflow_exits_2_naming_the_flag(capsys, argv, message):
    code, out, err = run(capsys, "verify", "tychonov", *argv)
    assert code == 2
    assert out == ""
    assert err.strip() == message


@pytest.mark.parametrize("terms", ["35", "40", "76"])
def test_tychonov_passes_past_the_old_precision_floor(capsys, terms):
    """At 35 terms and more the residual sits below the error of the
    1e-25 stencils; at 76 the bound at K + 10 divides by (2K)! > 170!."""
    code, out, err = run(capsys, "verify", "tychonov", "--terms", terms, "--format", "json")
    assert (code, err) == (0, "")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks[f"analytic vs finite-difference residual at K={terms}"]["value"] < 1e-10
    low, high = checks["ten more terms shrink the residual"]["value"]
    assert 0.0 < high < low


def test_tychonov_float_overflow_is_one_error_line(capsys):
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "tychonov", "--terms", "155")
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (2, "")
    assert err == "error: --alpha 2 --terms 155 --region 0.5,1.0,-1.0,1.0: the residual bound overflows a double\n"


def test_tychonov_refuses_an_oversized_derivative_table_up_front(capsys):
    """--alpha 100000 once built 86 million coefficients (~14 s, ~460 MB)
    before its residual bound overflowed."""
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "tychonov", "--alpha", "100000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "error: --alpha 100000 --terms 30: the derivative table needs 86100903 coefficients,"
        " over the budget of 1000000\n"
    )


@pytest.mark.parametrize("n", ["307", "401"])
def test_inequality_rejects_n_past_a_double_before_drawing(capsys, n):
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "inequality", "--n", n, "--samples", "1000")
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --n {n}: ")


def test_inequality_largest_odd_n_passes_finite(capsys):
    import math
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "inequality", "--n", "305", "--samples", "1000", "--format", "json")
    assert [str(w.message) for w in caught] == []
    assert (code, err) == (0, "")
    value = json.loads(out)["checks"][0]["value"]
    assert math.isfinite(value)


@pytest.mark.parametrize("kind", ["z1", "white"])
def test_noise_sample_estimate_checks_fit_window_before_sampling(tmp_path, capsys, monkeypatch, kind):
    calls = _noise_or_suite_calls(monkeypatch)
    out_dir = tmp_path / "D"
    code, out, err = run(
        capsys, "noise", "sample", "--dim", "2", "--grid", "8", "--kind", kind, "--estimate", "--out", str(out_dir)
    )
    assert (code, out) == (2, "")
    assert err == "error: --dim 2 --grid 8 --estimate: grid (8, 8): need at least 4 dyadic blocks to fit an exponent\n"
    assert calls == []
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "steps,dt",
    [("16", "1e308"), ("100", "1e307"), ("1" + "0" * 400, "2.5e-3")],
    ids=["step-overflows", "end-time-overflows", "steps-past-a-double"],
)
def test_noise_sample_names_the_flags_when_the_end_time_overflows(tmp_path, capsys, monkeypatch, steps, dt):
    calls = _noise_or_suite_calls(monkeypatch)
    out_dir = tmp_path / "run"
    code, out, err = run(capsys, "noise", "sample", "--grid", "64", "--steps", steps, "--dt", dt, "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err == f"error: --dt {float(dt)!r} --steps {steps}: the end time dt * steps overflows a double\n"
    assert calls == []
    assert not out_dir.exists()


def test_failed_allocation_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch):
    # every suite now refuses a grid too large to allocate before it
    # allocates, so the runner raises what numpy raises for 2**50 doubles
    def allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 PiB for an array with shape (1125899906842624,) and data type float64")

    monkeypatch.setattr(cli, "run_suite", allocate)
    out = tmp_path / "F"
    code, stdout, err = run(capsys, "verify", "uniqueness", "--grid", str(2**50), "--out", str(out))
    assert (code, stdout) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_verify_uniqueness_refuses_a_grid_past_its_budget_before_allocating(tmp_path):
    # numpy once refused the data row of 2**60 points with a traceback
    src = str(Path(spdecrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "spdecrit.cli", "verify", "uniqueness", "--grid", str(2**60), "--out", "F"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: --grid {2**60} --tmax 1.0 --dt 0.0001: the march keeps 5893 rows of {2**60} points,"
        " over the budget of 37715200\n"
    )
    assert not (tmp_path / "F").exists()


def test_verify_inequality_refuses_oversized_samples_before_drawing(tmp_path):
    # the blocked sweep draws nothing whole, so no allocation fails: 4 x 1e12
    # sample pairs would run for over two days
    src = str(Path(spdecrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "spdecrit.cli", "verify", "inequality", "--samples", "1000000000000", "--out", "F"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: --samples 1000000000000: the sweep draws 4000000000000 sample pairs,"
        " 4 x 1000000000000, over the budget of 100000000\n"
    )
    assert not (tmp_path / "F").exists()


def test_verify_uniqueness_refuses_a_long_march_on_a_small_grid_before_marching(tmp_path):
    # 4-point rows allocate nothing large, so only the step budget stops
    # this form: it once marched 2e7 steps at dt/2, still running at 10 s
    src = str(Path(spdecrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "spdecrit.cli", "verify", "uniqueness", "--grid", "4", "--tmax", "100", "--dt", "1e-5",
         "--out", "F"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: --tmax 100.0 --dt 1e-05: the dt/2 run marches 2e+07 steps, over the budget of 500000\n"
    assert not (tmp_path / "F").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ("noise", "--ensembles", "401"),
            "--ensembles 401 --grid 4096: the roughness fit solves 1642496 member-points, 401 x 4096,"
            " over the budget of 1638400",
        ),
        (
            ("noise", "--grid", "131072", "--ensembles", "13"),
            "--ensembles 13 --grid 131072: the roughness fit solves 1703936 member-points, 13 x 131072,"
            " over the budget of 1638400",
        ),
        (
            ("steklov", "--samples", "2501"),
            "--samples 2501: the contraction check draws 2501 random series, over the budget of 2500",
        ),
    ],
    ids=["noise-ensembles", "noise-grid", "steklov-samples"],
)
def test_verify_refuses_work_over_its_budget_before_spawning_seeds(tmp_path, capsys, monkeypatch, argv, message):
    # just over each budget; under it these would run for a second or two
    from spdecrit import suites

    spawned = []
    spawn = suites._spawn
    monkeypatch.setattr(suites, "_spawn", lambda seed, count: spawned.append(count) or spawn(seed, count))
    code, out, err = run(capsys, "verify", *argv, "--out", str(tmp_path / "F"))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert spawned == []
    assert not (tmp_path / "F").exists()


def test_verify_budgets_are_25_times_the_default_work():
    from spdecrit import suites

    noise, steklov = cli._SUITES["noise"], cli._SUITES["steklov"]
    assert suites._NOISE_BUDGET == 25 * noise["ensembles"][1] * noise["grid"][1]
    assert suites._STEKLOV_BUDGET == 25 * steklov["samples"][1]


def test_noise_sample_refuses_rows_over_its_budget_before_allocating(tmp_path):
    # 100000007 is prime, so every row is kept: 100000008 x 2049 complex
    # modes, 2.98 TiB.  Under the address-space cap an attempt to allocate
    # them fails at once instead of touching memory.
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    src = str(Path(spdecrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "spdecrit.cli", "noise", "sample", "--steps", "100000007", "--out", "F"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: --steps 100000007 --grid 4096: the sample keeps 100000008 x 2049 complex modes,"
        " 3278400262272 bytes, over the budget of 145305600\n"
    )
    assert not (tmp_path / "F").exists()


def test_noise_sample_of_a_huge_step_writes_it_without_warnings(tmp_path):
    # |m|^2 dt overflows to inf at every mode but the zero mode, and
    # exp(-inf) gives the step's exact limits; numpy's overflow warnings
    # went to stderr of a run that exits 0
    src = str(Path(spdecrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "spdecrit.cli", "noise", "sample", "--dt", "1e300", "--out", "F"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "F").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ("--kind", "white", "--grid", "134217728"),
            "--grid 134217728: the sample keeps 1 x 67108865 complex modes, 1073741840 bytes,",
        ),
        (
            ("--dim", "2", "--grid", "2048"),
            "--steps 400 --grid 2048: the sample keeps 9 x 2099200 complex modes, 302284800 bytes,",
        ),
    ],
    ids=["white", "2d"],
)
def test_noise_sample_sizes_its_rows_before_the_lab_runs(tmp_path, capsys, monkeypatch, argv, message):
    calls = _noise_or_suite_calls(monkeypatch)
    out_dir = tmp_path / "run"
    code, out, err = run(capsys, "noise", "sample", *argv, "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err == f"error: {message} over the budget of 145305600\n"
    assert calls == []
    assert not out_dir.exists()


def test_the_sample_budget_admits_the_largest_benchmarked_form(tmp_path, capsys):
    # 11 x 256 x 129 complex modes; the budget is 25 times that
    out_dir = tmp_path / "run"
    code, out, err = run(capsys, "noise", "sample", "--dim", "2", "--grid", "256", "--steps", "100", "--out", str(out_dir))
    assert (code, err) == (0, "")
    assert len(list(out_dir.glob("*.spdf"))) == 11
    assert cli._SAMPLE_BUDGET == 25 * 11 * 256 * 129 * 16


_NAMED = [
    (("verify", "uniqueness", "--n", "4"), "--n '4': expects an odd integer >= 3"),
    (("verify", "inequality", "--n", "4"), "--n '4': expects an odd integer >= 3"),
    (("verify", "uniqueness", "--dim", "2"), "--dim '2': expects 1"),
    (("verify", "uniqueness", "--grid", "100"), "--grid '100': expects a power of two >= 4"),
    (("verify", "noise", "--grid", "100"), "--grid '100': expects a power of two >= 4"),
    (("noise", "sample", "--grid", "6"), "--grid '6': expects a power of two >= 4"),
    (("verify", "noise", "--grid", "32"), "--grid 32: grid (32,): exponent-fit window is empty at this resolution"),
    (
        ("noise", "sample", "--grid", "32", "--estimate"),
        "--dim 1 --grid 32 --estimate: grid (32,): exponent-fit window is empty at this resolution",
    ),
    (("verify", "uniqueness", "--tmax", "0"), "--tmax '0': expects a positive finite value"),
    (("verify", "uniqueness", "--dt", "nan"), "--dt 'nan': expects a positive finite value"),
    (("verify", "uniqueness", "--tmax", "inf"), "--tmax 'inf': expects a positive finite value"),
    (("verify", "inequality", "--samples", "0"), "--samples '0': expects a positive finite value"),
    (("verify", "steklov", "--samples", "0"), "--samples '0': expects a positive finite value"),
    (("verify", "tychonov", "--terms", "0"), "--terms '0': expects a positive finite value"),
    (("verify", "noise", "--ensembles", "0"), "--ensembles '0': expects a positive finite value"),
    (("verify", "uniqueness", "--dt", "0.5"), "--n 3 --dt 0.5: unstable step: dt * max|u|^(n-1) = 1.12 >= 0.5"),
    (("verify", "uniqueness", "--n", "401"), "--n 401 --dt 0.0001: unstable step: dt * max|u|^(n-1) = 2.73e+66 >= 0.5"),
    (
        ("verify", "uniqueness", "--tmax", "1e-9"),
        "--tmax 1e-09 --dt 0.0001: tmax=1e-09 is shorter than one step of 0.001",
    ),
    (("verify", "tychonov", "--alpha", "1"), "--alpha '1': expects an integer >= 2"),
    (("analyze", "phi4", "--levels", "0"), "--levels '0': expects an integer in [1, 32]"),
    (("analyze", "phi4", "--levels", "33"), "--levels '33': expects an integer in [1, 32]"),
    # the field of so short an end time underflows to zero in the fit's blocks
    (
        ("noise", "sample", "--grid", "64", "--dt", "5e-324", "--steps", "8", "--estimate"),
        "--dt 5e-324 --steps 8 --estimate: exponent-fit window is empty at this resolution",
    ),
]


@pytest.mark.parametrize("argv,message", _NAMED, ids=[" ".join(argv) for argv, _ in _NAMED])
def test_bad_input_exits_2_naming_its_flags(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []  # noise sample's default --out included


@pytest.mark.parametrize("how", ["config", "spec"])
def test_an_undecodable_input_file_names_its_flag_or_path(tmp_path, capsys, how):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\x89\xff\xfe")
    argv = ("analyze", "phi4", "--config", str(path)) if how == "config" else ("analyze", str(path))
    named = f"--config {path}" if how == "config" else str(path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {named}: 'utf-8' codec can't decode byte 0x89 in position 0: invalid start byte\n"


@pytest.mark.parametrize("fault", [ValueError("a fault"), KeyError("a fault")], ids=["ValueError", "KeyError"])
@pytest.mark.parametrize(
    "argv,module,name",
    [(("verify", "bony"), "spdecrit.suites", "run_bony"), (("analyze", "phi4"), "spdecrit.expansion", "expand")],
    ids=["suite", "expand"],
)
def test_a_fault_is_not_bad_input(monkeypatch, fault, argv, module, name):
    def broken(*args, **kwargs):
        raise fault

    monkeypatch.setattr(importlib.import_module(module), name, broken)
    with pytest.raises(type(fault)):
        cli.main(list(argv))


_HOSTILE = ("nan", "inf", "-1", "0", "1e300", "abc", "3.5", "1")
_TABLES = [
    (("analyze", "phi4"), cli._ANALYZE),
    *((("verify", suite), {**cli._SEED, **reads, **cli._RENDER}) for suite, reads in cli._SUITES.items()),
    (("noise", "sample"), cli._NOISE_SAMPLE),
]


@pytest.mark.parametrize("command,table", _TABLES, ids=[" ".join(command) for command, _ in _TABLES])
def test_every_option_runs_or_refuses_hostile_values_by_name(tmp_path, capsys, monkeypatch, command, table):
    """The suites and `expand` are stubbed, so this checks the converters
    and the checks the CLI makes itself; `noise sample` draws for real,
    which at its defaults takes a few milliseconds."""
    from spdecrit import expansion
    from spdecrit.dsl import load_bundled_spec

    report = expansion.expand(load_bundled_spec("phi4"), 1)
    monkeypatch.setattr(expansion, "expand", lambda spec, max_levels: report)
    monkeypatch.setattr(cli, "run_suite", lambda name, **options: {"suite": name, "checks": [], "passed": True})
    monkeypatch.delenv("SPDECRIT_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    for name in table:
        for value in _HOSTILE:
            code, _, err = run(capsys, *command, f"--{name}", value)
            assert code == 0 or (code == 2 and err.startswith(f"error: --{name} ")), (name, value, code, err)


def test_stride_matches_the_unbounded_search_wherever_it_fits():
    from oracles import stride_oracle

    # the most rows at --grid 4096 and 64 in 1D and at --grid 256 in 2D;
    # below 275,200 steps every stride fits the second
    budgets = [cli._SAMPLE_BUDGET // (modes * 16) for modes in (2049, 33, 256 * 129)]
    assert budgets == [4432, 275200, 275]

    def agree(steps, rows, want):
        got = cli._stride(steps, rows)
        fits = steps // want + 1 <= rows
        # a stride that fits is the oracle's; one that does not is refused
        return got == want if fits else steps // got + 1 > rows

    wants = [stride_oracle(steps) for steps in range(1, 100_001)]
    for rows in (budgets[0], budgets[2]):
        assert [steps for steps, want in enumerate(wants, 1) if not agree(steps, rows, want)] == [], rows
    for steps in (8 * (2**61 - 1), 3 * 5 * 1_000_003, 2 * 99_991, 1_000_003 * 8, 274_877 * 2):
        want = stride_oracle(steps)
        assert all(agree(steps, rows, want) for rows in budgets), steps
    # the fewest intervals, 9 and 127, keep exactly the rows allowed
    assert cli._stride(81, 10) == 9 and cli._stride(127**2, 128) == 127


def test_noise_sample_refuses_a_huge_prime_step_count_at_once(tmp_path):
    # 2^61 - 1 is prime: the unbounded divisor search took ~1.5e9 trials;
    # no divisor keeps the 275,200 rows that --grid 64 allows
    src = str(Path(spdecrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    steps = 2**61 - 1
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "spdecrit.cli", "noise", "sample", "--steps", str(steps), "--grid", "64", "--out", "F"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: --steps {steps} --grid 64: the sample keeps {steps + 1} x 33 complex modes,"
        f" {(steps + 1) * 33 * 16} bytes, over the budget of 145305600\n"
    )
    assert not (tmp_path / "F").exists()
