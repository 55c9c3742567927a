"""Flat binary snapshots and trajectory directories.

Snapshot layout: magic "SPDF", then little-endian u32 version, u32 dim,
dim-many u32 extents, then float64 samples in row-major order.  A
trajectory is a directory of snapshots plus a JSON manifest.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..report import atomic_write, serialize_envelope
from .fields import _check_shape

MAGIC = b"SPDF"
VERSION = 1


class Snapshot(NamedTuple):
    """A snapshot as read back: its samples and the grid they lie on."""

    values: np.ndarray
    grid_shape: Tuple[int, ...]


class Trajectory(NamedTuple):
    """The record of a trajectory directory: its step dt, its sample
    times and one array of sample values per time, as written; read
    back, one Snapshot per time."""

    dt: float
    times: Sequence[float]
    fields: Iterable


def field_to_bytes(values: np.ndarray) -> bytes:
    header = MAGIC + struct.pack("<II", VERSION, values.ndim)
    header += struct.pack(f"<{values.ndim}I", *values.shape)
    body = values.astype("<f8").tobytes(order="C")
    return header + body


def write_field(values: np.ndarray, path) -> None:
    atomic_write(Path(path), field_to_bytes(values))


def read_field(path) -> Snapshot:
    """The snapshot at path; ValueError, naming the path, for any file
    that write_field does not write."""
    raw = Path(path).read_bytes()
    try:
        if raw[:4] != MAGIC:
            raise ValueError("not a field snapshot (bad magic)")
        version, dim = struct.unpack_from("<II", raw, 4)
        if version != VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        shape = struct.unpack_from(f"<{dim}I", raw, 12)
        _check_shape(dim, shape)
        values = np.frombuffer(raw, dtype="<f8", offset=12 + 4 * dim).reshape(shape)
    except (struct.error, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return Snapshot(values.copy(), shape)


def write_trajectory(traj: Trajectory, directory, seed: Optional[int] = None) -> None:
    """One snapshot per array of values, as the arrays come, and a manifest whose n is their first axis's points."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n = None
    for idx, values in enumerate(traj.fields):
        write_field(values, directory / f"field_{idx:05d}.spdf")
        n = values.shape[0]
    manifest = {
        "dt": traj.dt,
        "times": [float(t) for t in traj.times],
        "n": n,
        "seed": seed,
    }
    atomic_write(directory / "manifest.json", serialize_envelope(manifest).encode())


def read_trajectory(directory) -> Trajectory:
    """The trajectory a directory records, its fields in a list; ValueError unless it
    holds one snapshot per manifest time, all on one grid, at uniform times."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    dt, times = manifest["dt"], np.array(manifest["times"])
    fields = [read_field(p) for p in sorted(directory.glob("field_*.spdf"))]
    if len(fields) != len(times):
        raise ValueError(f"{directory}: {len(fields)} snapshots for {len(times)} manifest times")
    if len({f.grid_shape for f in fields}) > 1:
        raise ValueError(f"{directory}: snapshots on more than one grid")
    if len(times) > 1 and not np.allclose(np.diff(times), dt, rtol=1e-9, atol=1e-12):
        raise ValueError(f"{directory}: manifest times are not uniformly spaced")
    return Trajectory(dt, times, fields)
