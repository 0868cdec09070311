"""RSFF field files.

Layout (little-endian): magic ``RSFF``, u32 version=1, u32 d, u32 ncomp,
u32 dims[d], f64 length[d], f64 time, then ncomp * prod(dims) f64 values,
component-major then row-major (axis 1 slowest).
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .fields import Grid, ScalarField, VectorField

MAGIC = b"RSFF"
VERSION = 1


def write_field(path, f, time: float = 0.0) -> None:
    """Write a ScalarField, VectorField, or non-empty list of ScalarFields
    on one grid."""
    if isinstance(f, ScalarField):
        f = [f]
    if not isinstance(f, VectorField):
        f = list(f)
        if not f:
            raise ValueError(f"{path}: no components to write")
        f = VectorField(f[0].grid, f)
    comps, grid = f.components, f.grid
    d = grid.d
    header = MAGIC + struct.pack("<III", VERSION, d, len(comps))
    header += struct.pack(f"<{d}I", *grid.dims)
    header += struct.pack(f"<{d}d", *grid.length)
    header += struct.pack("<d", float(time))
    with open(path, "wb") as fh:
        fh.write(header)
        for c in comps:
            np.ascontiguousarray(c.values, dtype="<f8").tofile(fh)


def read_field(path):
    """Read an RSFF file; returns (VectorField, time).  Errors name the file.
    Each component is read into a read-only array of its own, not a view of
    one buffer of the whole file: after a solver run, reads of one
    component's size can reuse the freed blocks of its arrays, where one
    read of the whole file may find no free block that large."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        raw = fh.read(16)
        if raw[:4] != MAGIC:
            raise ValueError(f"{path}: not an RSFF file")
        try:
            ver, d, ncomp = struct.unpack_from("<III", raw, 4)
            if ver != VERSION:
                raise ValueError(f"{path}: unsupported version {ver}")
            raw += fh.read(min(12 * d + 8, size))  # dims, length and time
            off = 16
            dims = struct.unpack_from(f"<{d}I", raw, off)
            off += 4 * d
            length = struct.unpack_from(f"<{d}d", raw, off)
            off += 8 * d
            (time,) = struct.unpack_from("<d", raw, off)
            off += 8
        except struct.error:
            raise ValueError(f"{path}: truncated header ({size} bytes)") from None
        if not ncomp:
            raise ValueError(f"{path}: no components")
        try:
            grid = Grid(dims, length)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if not math.isfinite(time):
            raise ValueError(f"{path}: time {time} is not finite")
        expected = off + 8 * grid.npoints * ncomp
        if size != expected:
            raise ValueError(f"{path}: truncated ({size} bytes, expected {expected})")
        comps = []
        for _ in range(ncomp):
            vals = np.empty(dims, dtype="<f8")
            if fh.readinto(vals) != vals.nbytes:  # cut since the size check
                raise ValueError(f"{path}: truncated while read")
            vals.flags.writeable = False
            comps.append(vals)
    return VectorField.from_arrays(grid, comps, str(path)), time
