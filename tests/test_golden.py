"""Golden digests of seeded outputs.

Each digest is the SHA-256 of `deterministic_bytes` of one verify run's
JSON envelope (the timestamp left out, the version kept), or of the files one
`noise sample` writes.  A change that claims byte-identical output must
leave them as they are; a declared stream change records new ones with
its new version.  The digests hold for the numpy and mpmath versions
below and are skipped under any other.  To print the digests of the
current tree:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import mpmath
import numpy as np
import pytest

from oracles import deterministic_bytes
from spdecrit import cli

RECORDED_WITH = {"numpy": "2.4.6", "mpmath": "1.3.0"}

SUITES = {
    "inequality": ["inequality", "--samples", "40000", "--seed", "1"],
    "uniqueness": ["uniqueness", "--grid", "64", "--tmax", "0.05", "--dt", "1e-3", "--seed", "1"],
    # 2,000 and 4,000 steps: the march's blocks and the streamed checks
    "uniqueness_blocks": ["uniqueness", "--grid", "64", "--tmax", "0.2", "--dt", "1e-4", "--seed", "1"],
    "steklov": ["steklov", "--samples", "5", "--seed", "4"],
    "tychonov": ["tychonov"],
    "noise": ["noise", "--grid", "256", "--ensembles", "4", "--seed", "0"],
    "bony": ["bony", "--seed", "11"],
}
SAMPLES = {
    "sample_1d": ["--dim", "1", "--grid", "256", "--seed", "4", "--steps", "32"],
    "sample_2d": ["--dim", "2", "--grid", "32", "--seed", "5", "--steps", "100"],
    "white_1d": ["--kind", "white", "--dim", "1", "--grid", "256", "--seed", "6"],
    "white_2d": ["--kind", "white", "--dim", "2", "--grid", "32", "--seed", "7"],
}
GOLDEN = {
    "inequality": "0789983f9310dffdf6b10bac1891d02d402dfd871133cc1c4f2b15bf37bd2ab2",
    "uniqueness": "4599a8d158acb535ceac2d02d6ac0fe32921ef5dece071f1acfdd3d70aab5203",
    "uniqueness_blocks": "33b8c9a0bac260c6c97ec856086f76c88ecb9508ac02267fb92a572fc7fc7176",
    "steklov": "e89a4bfbbd88667460b21a4888472f44bb65fe9b93bceb791d5ea0d3fc992e6b",
    "tychonov": "08eff4c5f899b53804e0d74d0ac9b5628d7648e65ee540cf707882e5e2396a17",
    "noise": "9476bd988ed786767d700405888cd5eeb611e901b95eb88c0c54c7cfe77645c5",
    "bony": "0b8968526bc8dc02f9f3346fe91a8d71423c929d6211105a37afb1a96a68d878",
    "sample_1d": "cdabe80c46ed8cacd9076192970fcd20919778610609607e6880610dca10b527",
    "sample_2d": "48cc33e7952c9dfcf3c21b31945ef00bfa022a4feaaf30e4c42eccfcef375e74",
    "white_1d": "b022b0a8ec17ccc1c676823d1ca23c6b1354a21f3821fdce6bc1cdcd935891d6",
    "white_2d": "f5d9120c20d41c091158e86b5cfe8d32c4fb02c055518e337dae9cace50443ee",
}


def suite_digest(name: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(["verify", *SUITES[name], "--format", "json"])
    return hashlib.sha256(deterministic_bytes(json.loads(out.getvalue()))).hexdigest()


def sample_digest(name: str, out_dir: Path) -> str:
    with redirect_stdout(io.StringIO()):
        assert cli.main(["noise", "sample", *SAMPLES[name], "--out", str(out_dir)]) == 0
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


versions_differ = pytest.mark.skipif(
    (np.__version__, mpmath.__version__) != (RECORDED_WITH["numpy"], RECORDED_WITH["mpmath"]),
    reason=f"digests recorded with numpy {RECORDED_WITH['numpy']} and mpmath {RECORDED_WITH['mpmath']}",
)


@versions_differ
@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_digest(name):
    assert suite_digest(name) == GOLDEN[name]


@versions_differ
@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_sample_digest(tmp_path, name):
    assert sample_digest(name, tmp_path / name) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        found = {name: suite_digest(name) for name in SUITES}
        found.update({name: sample_digest(name, Path(tmp) / name) for name in SAMPLES})
    json.dump(found, sys.stdout, indent=4)
    print()
