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

from ..report import atomic_write
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


def write_trajectory(traj: Trajectory, directory, n: Optional[int] = None, seed: Optional[int] = None) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for idx, field in enumerate(traj.fields):
        write_field(field, directory / f"field_{idx:05d}.spdf")
    manifest = {
        "dt": traj.dt,
        "times": [float(t) for t in traj.times],
        "n": n,
        "seed": seed,
    }
    atomic_write(directory / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2).encode() + b"\n")


def read_trajectory(directory) -> Trajectory:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    fields = [read_field(p) for p in sorted(directory.glob("field_*.spdf"))]
    return Trajectory(dt=manifest["dt"], times=np.array(manifest["times"]), fields=fields)
