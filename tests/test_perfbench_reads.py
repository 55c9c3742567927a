"""What the benchmark harness in perfbench/ reads of the program.

The harness reads `noise sample` output back through `lab.io`, wraps
functions by module and name, and reads some of their arguments by
position and name.  These tests hold the program to those reads, so a
changed signature fails here rather than in a benchmark run.  They put
perfbench/ on sys.path and change nothing there.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

from spdecrit import cli  # noqa: E402

# the benchmark's noise sample forms at grids that still fit an exponent
_SMALLER = {"noise_sample_1d": "256", "noise_sample_2d": "64"}
# targets whose functions the program no longer has; the tracer lists
# them as missing and times nothing for them
_GONE = {
    "spdecrit.cli.subsample", "spdecrit.lab.heat.subsample", "spdecrit.expansion.classify",
    "spdecrit.expansion.scaling_exponent", "spdecrit.lab.heat.l1_contraction_curve",
    "spdecrit.lab.heat.solve_damped_heat",
}


def _sample_forms():
    for key, grid in _SMALLER.items():
        argv, _ = workloads.VERIFY_COMMANDS[key]
        argv = list(argv)
        argv[argv.index("--grid") + 1] = grid
        yield key, argv
    yield "white", ["noise", "sample", "--kind", "white", "--dim", "1", "--grid", "256", "--estimate"]


@pytest.mark.parametrize("key,argv", list(_sample_forms()), ids=[key for key, _ in _sample_forms()])
def test_noise_sample_output_passes_the_harness_check(tmp_path, capsys, key, argv):
    out = tmp_path / "out"
    assert cli.main([*argv, "--seed", "1", "--out", str(out)]) == cli.EXIT_OK
    stdout = capsys.readouterr().out
    dim, grid = int(argv[argv.index("--dim") + 1]), int(argv[argv.index("--grid") + 1])
    assert checks.check_noise_sample(out, stdout, dim, grid) == []


def _targets():
    seen = set()
    for target in tracer.SWEEP_TARGETS + tracer.CLI_TARGETS:
        if target[:2] not in seen:
            seen.add(target[:2])
            yield target


@pytest.mark.parametrize("target", list(_targets()), ids=lambda t: f"{t[0]}.{t[1]}")
def test_every_traced_target_resolves(target):
    owner_path, attr = target[:2]
    module_path, _, cls_name = owner_path.partition(":")
    owner = importlib.import_module(module_path)
    if cls_name:
        owner = getattr(owner, cls_name)
    found = attr in owner.__dict__ if cls_name else hasattr(owner, attr)
    assert found == (f"{owner_path}.{attr}" not in _GONE)


@pytest.mark.parametrize(
    "module,function,index,name",
    [
        ("spdecrit.lab.noise", "solve_z1_mild", 1, "grid_shape"),
        ("spdecrit.lab.noise", "solve_z1_mild", 3, "steps"),
        ("spdecrit.lab.heat", "proof_inequality_gap", 2, "n"),
        ("spdecrit.lab.io", "write_trajectory", 1, "directory"),
    ],
)
def test_arguments_the_tracer_reads_by_position_and_name(module, function, index, name):
    params = list(inspect.signature(getattr(importlib.import_module(module), function)).parameters)
    assert params[index] == name
