"""Snapshot format round trips."""

import json

import numpy as np
import pytest

from spdecrit.lab import sample_spatial_white, solve_z1_mild
from spdecrit.lab.io import MAGIC, field_to_bytes, read_field, read_trajectory, write_field, write_trajectory


def test_field_round_trip(tmp_path):
    f = sample_spatial_white(1, (64,), 5)
    path = tmp_path / "f.spdf"
    write_field(f, path)
    g = read_field(path)
    assert g.grid_shape == f.grid_shape
    assert np.array_equal(g.values, f.values)


def test_field_round_trip_2d(tmp_path):
    f = sample_spatial_white(2, (16, 16), 6)
    write_field(f, tmp_path / "f.spdf")
    g = read_field(tmp_path / "f.spdf")
    assert np.array_equal(g.values, f.values)


def test_header_layout():
    f = sample_spatial_white(1, (16,), 7)
    raw = field_to_bytes(f)
    assert raw[:4] == MAGIC
    assert int.from_bytes(raw[4:8], "little") == 1  # version
    assert int.from_bytes(raw[8:12], "little") == 1  # dim
    assert int.from_bytes(raw[12:16], "little") == 16
    assert len(raw) == 16 + 16 * 8


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.spdf"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        read_field(path)


def test_trajectory_round_trip(tmp_path):
    traj = solve_z1_mild(1, (32,), 0.01, 5, seed=9)
    write_trajectory(traj, tmp_path / "run", seed=9)
    back = read_trajectory(tmp_path / "run")
    assert back.dt == traj.dt
    assert len(back.fields) == len(traj.fields)
    for a, b in zip(back.fields, traj.fields):
        assert np.array_equal(a.values, b.values)


def test_writes_are_deterministic(tmp_path):
    traj = solve_z1_mild(1, (32,), 0.01, 5, seed=11)
    write_trajectory(traj, tmp_path / "a", seed=11)
    write_trajectory(traj, tmp_path / "b", seed=11)
    for name in ("manifest.json", "field_00000.spdf", "field_00005.spdf"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("shape", [(32,), (16, 8)])
def test_manifest_n_is_the_trajectory_grid(tmp_path, shape):
    traj = solve_z1_mild(len(shape), shape, 0.01, 2, seed=3)
    write_trajectory(traj, tmp_path / "run", seed=3)
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["n"] == shape[0]
