"""RSFF field files.

Layout (little-endian): magic ``RSFF``, u32 version=2, u32 d, u32 ncomp,
u32 dims[d], f64 length[d], f64 time, u32 mask[ncomp], then each
component's f64 values in turn, row-major (axis 1 slowest).  Bit a of a
component's mask is set when it varies along axis a; the component is
stored over those axes only, so an RSF snapshot keeps u1 and u2 once per
column: 17,039,432 bytes at 128^3, against 50,331,708 for three full
arrays.  Version 1 files, which have no masks and store every component
over every axis, still read.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .fields import Grid, ScalarField, VectorField

MAGIC = b"RSFF"
VERSION = 2


def write_field(path, f, time: float = 0.0) -> None:
    """Write a ScalarField, VectorField, or non-empty list of ScalarFields
    on one grid.  A component is stored over the axes along which its
    values have a nonzero stride: a broadcast view (stride 0) is written
    once, not repeated."""
    if isinstance(f, ScalarField):
        f = [f]
    if not isinstance(f, VectorField):
        f = list(f)
        if not f:
            raise ValueError(f"{path}: no components to write")
        f = VectorField(f[0].grid, f)
    comps, grid = f.components, f.grid
    d = grid.d
    values = [c.values for c in comps]
    masks = [sum(1 << a for a, s in enumerate(v.strides) if s) for v in values]
    header = MAGIC + struct.pack("<III", VERSION, d, len(comps))
    header += struct.pack(f"<{d}I", *grid.dims)
    header += struct.pack(f"<{d}d", *grid.length)
    header += struct.pack("<d", float(time))
    header += struct.pack(f"<{len(comps)}I", *masks)
    with open(path, "wb") as fh:
        fh.write(header)
        for v in values:
            stored = v[tuple(slice(None) if s else slice(0, 1) for s in v.strides)]
            np.ascontiguousarray(stored, dtype="<f8").tofile(fh)


def read_field(path):
    """Read an RSFF file of version 1 or 2; returns (VectorField, time).
    Errors name the file.  Each component is read into a read-only array
    of its own, not a view of one buffer of the whole file: after a solver
    run, reads of one component's size can reuse the freed blocks of its
    arrays, where one read of the whole file may find no free block that
    large.  A component stored over fewer than all axes is returned as a
    read-only ``np.broadcast_to`` view of its array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        raw = fh.read(16)
        if raw[:4] != MAGIC:
            raise ValueError(f"{path}: not an RSFF file")
        try:
            ver, d, ncomp = struct.unpack_from("<III", raw, 4)
            if ver not in (1, VERSION):
                raise ValueError(f"{path}: unsupported version {ver}")
            nmasks = ncomp if ver > 1 else 0
            # dims, length, time and the masks
            raw += fh.read(min(12 * d + 8 + 4 * nmasks, size))
            off = 16
            dims = struct.unpack_from(f"<{d}I", raw, off)
            off += 4 * d
            length = struct.unpack_from(f"<{d}d", raw, off)
            off += 8 * d
            (time,) = struct.unpack_from("<d", raw, off)
            off += 8
            masks = struct.unpack_from(f"<{nmasks}I", raw, off)
            off += 4 * nmasks
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
        for c, mask in enumerate(masks):
            if mask >> d:
                raise ValueError(f"{path}: u{c + 1} has axis mask {mask:#x}, "
                                 f"which names an axis past d = {d}")
        if ver == 1:  # every component over every axis
            shapes, npoints = None, ncomp * grid.npoints
        else:
            shapes = [tuple(n if m >> a & 1 else 1 for a, n in enumerate(dims))
                      for m in masks]
            npoints = sum(map(math.prod, shapes))
        expected = off + 8 * npoints
        if size != expected:
            raise ValueError(f"{path}: truncated ({size} bytes, expected {expected})")
        comps = []
        for shape in shapes or [dims] * ncomp:  # ncomp is bounded by the size
            vals = np.empty(shape, dtype="<f8")
            if fh.readinto(vals) != vals.nbytes:  # cut since the size check
                raise ValueError(f"{path}: truncated while read")
            vals.flags.writeable = False
            comps.append(vals if shape == dims else np.broadcast_to(vals, dims))
    return VectorField.from_arrays(grid, comps, str(path)), time
