"""Snapshot format round trips."""

import json
import re
import struct

import numpy as np
import pytest

from spdecrit.lab import Trajectory, sample_spatial_white, solve_z1_mild, values_of
from spdecrit.lab.io import MAGIC, field_to_bytes, read_field, read_trajectory, write_field, write_trajectory


def z1_record(shape, steps, seed, dt=0.01):
    """The record of a z1 solve: one field's values per row, at times 0, dt, ..."""
    rows = solve_z1_mild(len(shape), shape, dt, steps, seed)
    return Trajectory(dt, np.arange(steps + 1) * dt, [values_of(row) for row in rows])


def test_field_round_trip(tmp_path):
    f = values_of(sample_spatial_white(1, (64,), 5))
    path = tmp_path / "f.spdf"
    write_field(f, path)
    g = read_field(path)
    assert g.grid_shape == f.shape
    assert np.array_equal(g.values, f)


def test_field_round_trip_2d(tmp_path):
    f = values_of(sample_spatial_white(2, (16, 16), 6))
    write_field(f, tmp_path / "f.spdf")
    g = read_field(tmp_path / "f.spdf")
    assert np.array_equal(g.values, f)


def test_header_layout():
    f = values_of(sample_spatial_white(1, (16,), 7))
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


def _snapshot(shape):
    """A snapshot of zeros on shape, laid out by hand."""
    return MAGIC + struct.pack(f"<II{len(shape)}I", 1, len(shape), *shape) + bytes(8 * int(np.prod(shape)))


@pytest.mark.parametrize(
    "raw",
    [
        MAGIC + struct.pack("<II", 1, 1000),  # cut off after its header, before the extents
        _snapshot((16,))[:-8],  # one sample short
    ],
    ids=["no extents", "short body"],
)
def test_a_cut_off_snapshot_is_refused_by_name(tmp_path, raw):
    path = tmp_path / "cut.spdf"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        read_field(path)


@pytest.mark.parametrize("shape", [(3,), (6,), (4, 4, 4)])
def test_a_snapshot_off_the_lab_grids_is_refused(tmp_path, shape):
    path = tmp_path / "odd.spdf"
    path.write_bytes(_snapshot(shape))
    with pytest.raises(ValueError):
        read_field(path)


def test_trajectory_round_trip(tmp_path):
    traj = z1_record((32,), 5, seed=9)
    write_trajectory(traj, tmp_path / "run", seed=9)
    back = read_trajectory(tmp_path / "run")
    assert back.dt == traj.dt
    assert len(back.fields) == len(traj.fields)
    for a, b in zip(back.fields, traj.fields):
        assert np.array_equal(a.values, b)


def test_writes_are_deterministic(tmp_path):
    traj = z1_record((32,), 5, seed=11)
    write_trajectory(traj, tmp_path / "a", seed=11)
    write_trajectory(traj, tmp_path / "b", seed=11)
    for name in ("manifest.json", "field_00000.spdf", "field_00005.spdf"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("shape", [(32,), (16, 8)])
def test_manifest_n_is_the_trajectory_grid(tmp_path, shape):
    traj = z1_record(shape, 2, seed=3)
    write_trajectory(traj, tmp_path / "run", seed=3)
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["n"] == shape[0]


def test_manifest_n_of_fields_written_one_at_a_time(tmp_path):
    rows = solve_z1_mild(2, (16, 8), 0.01, 2, seed=3)
    write_trajectory(Trajectory(0.01, [0.0, 0.01, 0.02], map(values_of, rows)), tmp_path / "run")
    assert json.loads((tmp_path / "run" / "manifest.json").read_text())["n"] == 16
    assert len(read_trajectory(tmp_path / "run").fields) == 3


# directories that read_trajectory refuses: each is a written trajectory
# with one thing broken after the write


def test_read_refuses_a_missing_snapshot(tmp_path):
    write_trajectory(z1_record((32,), 5, seed=9), tmp_path / "run", seed=9)
    (tmp_path / "run" / "field_00003.spdf").unlink()
    with pytest.raises(ValueError, match="5 snapshots for 6 manifest times"):
        read_trajectory(tmp_path / "run")


def test_read_refuses_times_not_uniformly_spaced(tmp_path):
    write_trajectory(z1_record((32,), 5, seed=9), tmp_path / "run", seed=9)
    manifest_path = tmp_path / "run" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["times"][3] += 0.005
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="not uniformly spaced"):
        read_trajectory(tmp_path / "run")


def test_read_refuses_snapshots_on_two_grids(tmp_path):
    write_trajectory(z1_record((32,), 5, seed=9), tmp_path / "run", seed=9)
    write_field(values_of(sample_spatial_white(1, (64,), 1)), tmp_path / "run" / "field_00002.spdf")
    with pytest.raises(ValueError, match="more than one grid"):
        read_trajectory(tmp_path / "run")
