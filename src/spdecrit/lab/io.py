"""Flat binary snapshots and trajectory directories.

Snapshot layout: magic "SPDF", then little-endian u32 version, u32 dim,
dim-many u32 extents, then float64 samples in row-major order.  A
trajectory is a directory of snapshots plus a JSON manifest.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Optional

import numpy as np

from ..report import atomic_write, serialize_envelope
from .fields import PeriodicField, Trajectory

MAGIC = b"SPDF"
VERSION = 1


def field_to_bytes(field: PeriodicField) -> bytes:
    header = MAGIC + struct.pack("<II", VERSION, field.dim)
    header += struct.pack(f"<{field.dim}I", *field.grid_shape)
    body = field.values.astype("<f8").tobytes(order="C")
    return header + body


def write_field(field: PeriodicField, path) -> None:
    atomic_write(Path(path), field_to_bytes(field))


def read_field(path) -> PeriodicField:
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a field snapshot (bad magic)")
    version, dim = struct.unpack_from("<II", raw, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    shape = struct.unpack_from(f"<{dim}I", raw, 12)
    offset = 12 + 4 * dim
    count = int(np.prod(shape))
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape)
    return PeriodicField(values.copy())


def write_trajectory(traj: Trajectory, directory, seed: Optional[int] = None) -> None:
    """One snapshot per field, as the fields come, and a manifest whose n is their first axis's points."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n = None
    for idx, field in enumerate(traj.fields):
        write_field(field, directory / f"field_{idx:05d}.spdf")
        n = field.grid_shape[0]
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
