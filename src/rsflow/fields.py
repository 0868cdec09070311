"""Periodic uniform grids and sampled fields.

Scalar and vector fields on d-dimensional periodic boxes with
4th-order centered finite differences, 4-point Lagrange interpolation,
and the steady Taylor-Green cell as exact
:class:`rsflow.trig.TrigPoly` components.

Conventions: values are stored row-major (C order) with axis 1 slowest;
the default box length is 2*pi per axis so integer wavenumbers are
exactly periodic.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .trig import TrigPoly

TWO_PI = 2.0 * math.pi

MIN_DIM = 8  # 4th-order stencils need room; smaller grids are rejected


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: ``dims`` samples per axis over ``length``."""

    dims: tuple
    length: tuple = None

    def __post_init__(self):
        dims = tuple(int(n) for n in np.atleast_1d(np.asarray(self.dims)))
        if not dims:
            raise ValueError("grid needs at least one axis")
        if any(n < MIN_DIM for n in dims):
            raise ValueError(f"all dims must be >= {MIN_DIM}, got {dims}")
        if self.length is None:
            length = (TWO_PI,) * len(dims)
        else:
            length = tuple(float(x) for x in np.atleast_1d(np.asarray(self.length)))
            if len(length) == 1:
                length = length * len(dims)
        if len(length) != len(dims):
            raise ValueError("length must have one entry per axis")
        if not all(0 < x < math.inf for x in length):
            raise ValueError(f"box lengths must be positive and finite, got {length}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "length", length)

    @classmethod
    def cube(cls, d: int, n: int, length: float = TWO_PI) -> "Grid":
        return cls((n,) * d, (length,) * d)

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def spacing(self) -> tuple:
        return tuple(L / n for L, n in zip(self.length, self.dims))

    @property
    def npoints(self) -> int:
        return int(np.prod(self.dims))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.arange(self.dims[axis]) * self.spacing[axis]

    def points(self) -> np.ndarray:
        """All node coordinates, shape dims + (d,)."""
        full = np.meshgrid(*[self.axis_coords(a) for a in range(self.d)], indexing="ij")
        return np.stack(full, axis=-1)


def _shaped(grid, values):
    v = np.asarray(values, dtype=np.float64)
    if v.shape != grid.dims:
        raise ValueError(f"values shape {v.shape} does not match grid dims {grid.dims}")
    return v


@dataclass(frozen=True, eq=False)
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = _shaped(self.grid, self.values)
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains NaN or Inf")
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.dims))

    def diff(self, axis: int) -> "ScalarField":
        return partial_derivative(self, axis)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l2(self) -> float:
        return float(np.sqrt(np.mean(self.values ** 2)))

    # Arithmetic skips the NaN/Inf scan: inputs are checked where they
    # enter (this constructor, RSFF reads, DiscreteMap, step_rk4).
    def _result(self, values) -> "ScalarField":
        out = object.__new__(ScalarField)
        object.__setattr__(out, "grid", self.grid)
        object.__setattr__(out, "values", _shaped(self.grid, values))
        return out

    def _operand(self, other):
        if isinstance(other, ScalarField):
            if other.grid != self.grid:
                raise ValueError("fields live on different grids")
            return other.values
        return other

    def __add__(self, other):
        return self._result(self.values + self._operand(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self._result(self.values - self._operand(other))

    def __rsub__(self, other):
        return self._result(other - self.values)

    def __mul__(self, other):
        return self._result(self.values * self._operand(other))

    __rmul__ = __mul__

    def __neg__(self):
        return self._result(-self.values)


@dataclass(frozen=True, eq=False)
class VectorField:
    grid: Grid
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        for c in comps:
            if not isinstance(c, ScalarField):
                raise TypeError("components must be ScalarFields")
            if c.grid != self.grid:
                raise ValueError("all components must share one grid")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_arrays(cls, grid: Grid, arrays) -> "VectorField":
        return cls(grid, tuple(ScalarField(grid, a) for a in arrays))

    @property
    def ncomp(self) -> int:
        return len(self.components)

    def max_abs(self) -> float:
        return max(c.max_abs() for c in self.components)


# ----------------------------------------------------------------------
# derivatives
# ----------------------------------------------------------------------

# Arrays of at least this many elements are differentiated in one slab per
# CPU on a thread pool (numpy releases the GIL inside the ufuncs).  On a
# 2-vCPU VM two threads lost to one at 64^3 and won at 96^3 and 128^3.
_SLAB_MIN_SIZE = 2 ** 19


@functools.cache
def _slab_pool():
    """(executor, slab count) over the CPUs this process may run on; made
    on first use, so importing rsflow starts no thread."""
    try:
        ncpu = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        ncpu = os.cpu_count() or 1
    if ncpu < 2:
        return None, 1
    return ThreadPoolExecutor(ncpu, thread_name_prefix="rsflow-stencil"), ncpu


if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's threads, so the inherited
    # pool would never run a slab: the child makes its own on first use
    os.register_at_fork(after_in_child=_slab_pool.cache_clear)


def _pair(op, values, axis: int, k: int, out) -> None:
    """``out[i] = op(values[i + k], values[i - k])`` along ``axis``,
    periodic: the interior and the two wrapped edges, three slices each."""
    n = values.shape[axis]

    def sl(a, b):
        return (slice(None),) * axis + (slice(a, b),)

    op(values[sl(2 * k, n)], values[sl(0, n - 2 * k)], out=out[sl(k, n - k)])
    op(values[sl(k, 2 * k)], values[sl(n - k, n)], out=out[sl(0, k)])
    op(values[sl(0, k)], values[sl(n - 2 * k, n - k)], out=out[sl(n - k, n)])


def _first(values, axis, scale, out, tmp):
    _pair(np.subtract, values, axis, 1, out)
    out *= 8.0
    _pair(np.subtract, values, axis, 2, tmp)
    out -= tmp
    out /= scale


def _second(values, axis, scale, out, tmp):
    _pair(np.add, values, axis, 1, out)
    out *= 16.0
    _pair(np.add, values, axis, 2, tmp)
    out -= tmp
    np.multiply(values, 30.0, out=tmp)
    out -= tmp
    out /= scale


def _stencil(kernel, values, axis: int, scale: float) -> np.ndarray:
    """Run ``kernel`` into a fresh array, in slabs along a non-derivative
    axis for large arrays.  The output and the scratch array are allocated
    here, so the workers write into views and allocate nothing."""
    values = np.asarray(values)
    axis = range(values.ndim)[axis]
    if values.shape[axis] < 4:
        raise ValueError(f"stencil needs at least 4 points along axis {axis}, "
                         f"got {values.shape[axis]}")
    out = np.empty(values.shape, np.result_type(values, 1.0))
    tmp = np.empty_like(out)
    big = values.size >= _SLAB_MIN_SIZE and values.ndim > 1
    pool, nslab = _slab_pool() if big else (None, 1)
    if pool is None:
        kernel(values, axis, scale, out, tmp)
        return out
    s = 1 if axis == 0 else 0
    n = values.shape[s]
    edges = [n * j // nslab for j in range(nslab + 1)]
    slabs = [(slice(None),) * s + (slice(a, b),) for a, b in zip(edges, edges[1:])]
    for job in [pool.submit(kernel, values[sl], axis, scale, out[sl], tmp[sl])
                for sl in slabs]:
        job.result()
    return out


# Both stencils combine neighbours in symmetric pairs first, so an array
# that is constant along ``axis`` (a broadcast view included) differentiates
# to exactly 0 there: the RSF zero pattern holds without rounding noise.

def derivative(values, axis: int, h: float) -> np.ndarray:
    """4th-order centered periodic first derivative of an array along ``axis``:
    ``(8 (f[i+1] - f[i-1]) - (f[i+2] - f[i-2])) / 12h``."""
    return _stencil(_first, values, axis, 12.0 * h)


def second_derivative(values, axis: int, h: float) -> np.ndarray:
    """4th-order centered periodic second derivative of an array along ``axis``:
    ``(16 (f[i+1] + f[i-1]) - (f[i+2] + f[i-2]) - 30 f[i]) / 12h^2``."""
    return _stencil(_second, values, axis, 12.0 * h * h)


def partial_derivative(f: ScalarField, axis: int) -> ScalarField:
    """Centered periodic finite-difference derivative along ``axis`` (0-based)."""
    if not 0 <= axis < f.grid.d:
        raise ValueError(f"axis {axis} out of range for {f.grid.d}-dimensional grid")
    return ScalarField(f.grid, derivative(f.values, axis, f.grid.spacing[axis]))


def divergence(u: VectorField) -> ScalarField:
    if u.ncomp != u.grid.d:
        raise ValueError(f"divergence needs {u.grid.d} components, got {u.ncomp}")
    out = np.zeros(u.grid.dims)
    for a, c in enumerate(u.components):
        out += derivative(c.values, a, u.grid.spacing[a])
    return ScalarField(u.grid, out)


def gradient_tensor(u: VectorField) -> np.ndarray:
    """Velocity-gradient matrix as one ``dims + (d, d)`` array:
    ``[..., r, c] = du_c / dx_r``."""
    if u.ncomp != u.grid.d:
        raise ValueError(f"gradient tensor needs {u.grid.d} components, got {u.ncomp}")
    d, h = u.grid.d, u.grid.spacing
    entries = [derivative(c.values, r, h[r]) for r in range(d) for c in u.components]
    return np.stack(entries, axis=-1).reshape(u.grid.dims + (d, d))


# ----------------------------------------------------------------------
# interpolation
# ----------------------------------------------------------------------

def lagrange4_weights(t):
    """Cubic Lagrange weights for nodes at offsets -1, 0, 1, 2."""
    return (
        -t * (t - 1.0) * (t - 2.0) / 6.0,
        (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
        -(t + 1.0) * t * (t - 2.0) / 2.0,
        (t + 1.0) * t * (t - 1.0) / 6.0,
    )


class Interpolator:
    """Periodic 4-point Lagrange interpolation at a fixed set of points.

    Precomputes indices and weights once; one call interpolates a whole
    stack of fields (velocity components, gradient entries, form
    coefficients) at the same points.  Points landing on grid nodes
    reproduce nodal values bit-exactly.
    """

    def __init__(self, grid: Grid, points):
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != grid.d:
            raise ValueError("point dimension does not match grid")
        self.grid = grid
        self.shape = pts.shape[:-1]
        flat = pts.reshape(-1, grid.d)
        self._idx = []  # per axis and offset: node index times C-order stride
        self._w = []
        for a in range(grid.d):
            h = grid.spacing[a]
            n = grid.dims[a]
            stride = math.prod(grid.dims[a + 1:])
            s = flat[:, a] / h
            bad = ~(np.abs(s) < 2.0 ** 62)  # the int64 cell index must not overflow
            if bad.any():
                p = int(np.argmax(bad))
                raise ValueError(f"point {p} has coordinate {flat[p, a]} on axis "
                                 f"{a}: not finite or 2**62 or more cells from 0")
            snapped = np.rint(s)
            s = np.where(np.abs(s - snapped) < 1e-9, snapped, s)
            i0 = np.floor(s).astype(np.int64)
            t = s - i0
            self._idx.append([np.mod(i0 + o, n) * stride for o in (-1, 0, 1, 2)])
            self._w.append(lagrange4_weights(t))

    def __call__(self, values) -> np.ndarray:
        """Interpolate fields of shape ``extra + grid.dims``; returns
        ``extra + shape`` (a single field is the case ``extra == ()``)."""
        values = np.asarray(values, dtype=float)
        d = self.grid.d
        if values.shape[-d:] != self.grid.dims:
            raise ValueError(f"values shape {values.shape} does not end in "
                             f"grid dims {self.grid.dims}")
        extra = values.shape[:-d]
        rows = values.reshape(-1, self.grid.npoints)
        out = np.zeros((rows.shape[0], self._idx[0][0].size))
        for offs in itertools.product(range(4), repeat=d):
            w = self._w[0][offs[0]]
            flat = self._idx[0][offs[0]]
            for a in range(1, d):
                w = w * self._w[a][offs[a]]
                flat = flat + self._idx[a][offs[a]]
            tap = rows.take(flat, axis=1)
            tap *= w
            out += tap
        return out.reshape(extra + self.shape)


def interpolate(f: ScalarField, point) -> float | np.ndarray:
    """4-point Lagrange interpolation; points outside the box wrap around."""
    pt = np.asarray(point, dtype=float)
    scalar = pt.ndim == 1
    res = Interpolator(f.grid, pt if not scalar else pt[None, :])(f.values)
    return float(res[0]) if scalar else res


def taylor_green_2d() -> tuple:
    """Steady 2D Taylor-Green cell (u1, u2, p), an exact Euler solution."""
    u1 = TrigPoly.sin(2, (1, 0)) * TrigPoly.cos(2, (0, 1))
    u2 = -1.0 * TrigPoly.cos(2, (1, 0)) * TrigPoly.sin(2, (0, 1))
    p = 0.25 * (TrigPoly.cos(2, (2, 0)) + TrigPoly.cos(2, (0, 2)))
    return u1, u2, p


def restrict(f: ScalarField, coarse: Grid) -> ScalarField:
    """Restrict to a grid whose nodes are a stride-subsample of f's grid."""
    fine = f.grid
    if fine.d != coarse.d or fine.length != coarse.length:
        raise ValueError("grids are not nested")
    strides = []
    for nf, nc in zip(fine.dims, coarse.dims):
        if nf % nc:
            raise ValueError(f"dims {nf} not divisible by {nc}")
        strides.append(nf // nc)
    sl = tuple(slice(None, None, s) for s in strides)
    return ScalarField(coarse, f.values[sl])
