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
import threading
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
        dims = tuple(np.atleast_1d(np.asarray(self.dims)).tolist())
        if not dims:
            raise ValueError("grid needs at least one axis")
        if not all(isinstance(n, int) and n >= MIN_DIM for n in dims):
            raise ValueError(f"all dims must be integers >= {MIN_DIM}, got {dims}")
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
    def cube(cls, d: int, n: int) -> "Grid":
        return cls((n,) * d)

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def spacing(self) -> tuple:
        return tuple(L / n for L, n in zip(self.length, self.dims))

    @property
    def npoints(self) -> int:
        return math.prod(self.dims)

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


def check_finite(where: str, arrays, names=None, error=ValueError) -> None:
    """The package's one NaN/Inf scan: raise ``error`` at the first bad value
    as ``<where>: <name> = <value> at node <index>``, named by ``names`` or
    u1, u2, ...; an empty ``where`` leaves out its prefix.  A broadcast
    axis (stride 0) repeats one value, so only its index 0 is scanned."""
    for c, values in enumerate(arrays):
        values = np.asarray(values)
        finite = np.isfinite(values[tuple(slice(0, 1) if s == 0 else slice(None)
                                          for s in values.strides)])
        if not finite.all():
            node = np.unravel_index(np.argmin(finite), finite.shape)
            prefix = f"{where}: " if where else ""
            name = names[c] if names else f"u{c + 1}"
            raise error(f"{prefix}{name} = {values[node]} at node "
                        f"{tuple(int(k) for k in node)}")


@dataclass(frozen=True, eq=False)
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = _shaped(self.grid, self.values)
        check_finite("", [values], ["field"])
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

    def is_zero(self) -> bool:
        return not np.any(self.values)  # a NaN is nonzero

    # Arithmetic skips the NaN/Inf scan: inputs are checked where they
    # enter, by check_finite.
    @classmethod
    def _unchecked(cls, grid: Grid, values) -> "ScalarField":
        out = object.__new__(cls)
        object.__setattr__(out, "grid", grid)
        object.__setattr__(out, "values", _shaped(grid, values))
        return out

    def _result(self, values) -> "ScalarField":
        return self._unchecked(self.grid, values)

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
    def from_arrays(cls, grid: Grid, arrays, name: str = "") -> "VectorField":
        """Components u1, u2, ... from arrays, after one NaN/Inf scan of
        each; ``name`` prefixes :func:`check_finite`'s message."""
        arrays = [_shaped(grid, a) for a in arrays]
        check_finite(name, arrays)
        return cls(grid, tuple(ScalarField._unchecked(grid, a) for a in arrays))

    @property
    def ncomp(self) -> int:
        return len(self.components)

    def max_abs(self) -> float:
        return max(c.max_abs() for c in self.components)


# ----------------------------------------------------------------------
# derivatives
# ----------------------------------------------------------------------

# Elements per slab (512 KB of float64): the arrays a slab's job touches
# stay in cache from one pass over them to the next.
_SLAB_SIZE = 2 ** 16
# Work of at least two slabs is cut into x1-slabs that run as jobs on a
# thread pool (numpy releases the GIL inside the ufuncs); less is one slab
# in the calling thread.  On a 2-vCPU VM the pool beat one slab from 40^3
# up (rhs at 64^3: 4.5 against 11.4 ms).
_SLAB_MIN_SIZE = 2 * _SLAB_SIZE

HALO = 2  # planes a first derivative reads beyond each end of a slab

_in_pool = threading.local()  # .worker is True in the pool's threads
_last_call = threading.local()  # .futures: this thread's last pool futures


def _as_worker(holder, a, b):
    _in_pool.worker = True
    return holder[0](a, b)


@functools.cache
def _slab_pool():
    """An executor with one thread per CPU this process may run on (None
    for one CPU); made on first use, so importing rsflow starts no thread."""
    try:
        ncpu = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        ncpu = os.cpu_count() or 1
    if ncpu < 2:
        return None
    return ThreadPoolExecutor(ncpu, thread_name_prefix="rsflow-slab")


if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's threads, so the inherited
    # pool would never run a slab: the child makes its own on first use
    os.register_at_fork(after_in_child=_slab_pool.cache_clear)


def map_slabs(job, n: int, plane: int) -> list:
    """``[job(a, b) for each slab]``: ``job`` over consecutive slabs
    ``[a, b)`` of ``range(n)`` along the slab axis, where one plane across
    it holds ``plane`` elements.

    ``n * plane`` below ``_SLAB_MIN_SIZE`` is one slab ``(0, n)`` in the
    calling thread.  Larger work is cut into slabs of about
    ``_SLAB_SIZE`` elements, run on the thread pool, or in order in the
    calling thread where there is no pool or the caller is a pool thread
    (a job waiting on jobs queued behind it would never return).
    """
    if n * plane < _SLAB_MIN_SIZE:
        return [job(0, n)]
    height = max(1, _SLAB_SIZE // plane)
    slabs = [(a, min(a + height, n)) for a in range(0, n, height)]
    pool = _slab_pool()
    if pool is None or getattr(_in_pool, "worker", False):
        return [job(a, b) for a, b in slabs]
    # A pool thread drops its work item only after setting the result, so
    # whatever the caller drops first would be freed by that thread, at a
    # moment that races the caller's next allocations; in a 128^3 simulate
    # run the heap then grew by 16-64 MB in some runs and not in others.
    # So the job reaches the pool through a holder that is emptied here,
    # and the futures are kept until this thread's next call, which drops
    # them before it makes its own: those reuse their memory.
    _last_call.futures = None
    holder = [job]
    jobs = [pool.submit(_as_worker, holder, a, b) for a, b in slabs]
    results = [f.result() for f in jobs]
    holder.clear()
    _last_call.futures = jobs
    return results


def with_halo(values, a: int, b: int) -> tuple:
    """``(planes, halo)``: what :func:`derivative` along any axis with that
    ``halo`` reads for the planes ``a`` to ``b - 1`` of the periodic
    ``values``.  That is planes ``a - HALO`` to ``b - 1 + HALO``, wrapped
    (a view where nothing wraps), and ``HALO``; for all of ``values``, it
    is ``values`` and 0, since the stencil then wraps by itself."""
    values = np.asarray(values)
    n = values.shape[0]
    if b - a == n:
        return values, 0
    if HALO <= a and b + HALO <= n:
        return values[a - HALO:b + HALO], HALO
    # indexing copies only these planes; take would first copy all of a
    # non-contiguous values, such as a broadcast view
    return values[np.arange(a - HALO, b + HALO) % n], HALO


def _pair(values, axis: int, k: int, out) -> None:
    """``out[i] = values[i + p + k] - values[i + p - k]`` along ``axis``,
    where ``values`` carries ``p`` halo planes at each end, as many as it
    has more than ``out``.  With a halo (``p >= k``) no index wraps;
    without one (``p = 0``) the indices are periodic: the interior and the
    two wrapped edges, three slices each.  Along the last axis of
    C-contiguous arrays the interior is one contiguous pass over all lines
    at once, which also writes the ``k`` edge nodes at each end of a line
    from the neighbouring line; the two edge passes then rewrite them."""
    n = out.shape[axis]
    p = (values.shape[axis] - n) // 2

    def sl(a, b):
        return (slice(None),) * axis + (slice(a, b),)

    if p:
        np.subtract(values[sl(p + k, p + k + n)],
                    values[sl(p - k, p - k + n)], out=out)
    else:
        if (axis == values.ndim - 1 and values.flags.c_contiguous
                and out.flags.c_contiguous):
            flat = values.reshape(-1)
            np.subtract(flat[2 * k:], flat[:flat.size - 2 * k],
                        out=out.reshape(-1)[k:out.size - k])
        else:
            np.subtract(values[sl(2 * k, n)], values[sl(0, n - 2 * k)],
                        out=out[sl(k, n - k)])
        np.subtract(values[sl(k, 2 * k)], values[sl(n - k, n)],
                    out=out[sl(0, k)])
        np.subtract(values[sl(0, k)], values[sl(n - 2 * k, n - k)],
                    out=out[sl(n - k, n)])


def derivative(values, axis: int, h: float, halo: int = 0) -> np.ndarray:
    """4th-order centered periodic first derivative of an array along ``axis``:
    ``(8 (f[i+1] - f[i-1]) - (f[i+2] - f[i-2])) / 12h``, formed in that
    order into a fresh array, one x1-slab at a time (:func:`map_slabs`).
    The symmetric pairs come first, so an array constant along ``axis``
    (a broadcast view included) differentiates to exactly 0 there: the
    RSF zero pattern holds without rounding noise.

    With ``halo`` > 0 the array carries that many extra planes at each
    end of axis 0, whatever ``axis`` is (as :func:`with_halo` gives them):
    the result leaves them out, and only an axis-0 stencil reads them."""
    values = np.asarray(values)
    axis = range(values.ndim)[axis]
    if 0 < halo < HALO:
        raise ValueError(f"halo {halo} is shorter than the stencil's "
                         f"reach {HALO}")
    if values.shape[axis] < 4:
        raise ValueError(f"stencil needs at least 4 points along axis {axis}, "
                         f"got {values.shape[axis]}")
    shape = list(values.shape)
    shape[0] -= 2 * halo
    out = np.empty(shape, np.result_type(values, 1.0))
    n = shape[0]

    def slab(a, b):
        if axis:
            src = values[halo + a:halo + b]
        elif halo:  # the caller's halo planes
            src = values[a:b + 2 * halo]
        else:
            src, _ = with_halo(values, a, b)
        dst, tmp = out[a:b], np.empty_like(out[a:b])
        _pair(src, axis, 1, dst)
        dst *= 8.0
        _pair(src, axis, 2, tmp)
        dst -= tmp
        dst /= 12.0 * h

    map_slabs(slab, n, out.size // n)
    return out


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
    tp1, tm1, tm2 = t + 1.0, t - 1.0, t - 2.0
    return (
        -t * tm1 * tm2 / 6.0,
        tp1 * tm1 * tm2 / 2.0,
        -tp1 * t * tm2 / 2.0,
        tp1 * t * tm1 / 6.0,
    )


def lagrange4_taps(x, h: float, n: int, axis: int = 0, first: int = 0) -> tuple:
    """The 4 periodic taps of cubic Lagrange interpolation along one axis
    of ``n`` nodes spaced ``h``: node indices (mod ``n``) and weights, 4
    arrays each, shaped like the coordinates ``x``.

    A coordinate within 1e-9 cells of a node snaps onto it, so its weights
    are exactly (0, 1, 0, 0).  A coordinate that is not finite or lies
    2**62 or more cells from 0, where the int64 cell index would overflow,
    is a ``ValueError`` naming ``axis`` and its flat index, counted from
    ``first`` (the index of ``x``'s first point in a larger set).
    """
    x = np.asarray(x, dtype=float)
    s = x / h
    bad = ~(np.abs(s) < 2.0 ** 62)
    if bad.any():
        p = int(np.argmax(bad))
        raise ValueError(f"point {first + p} has coordinate {x.flat[p]} on "
                         f"axis {axis}: not finite or 2**62 or more cells "
                         f"from 0")
    snapped = np.rint(s)
    s = np.where(np.abs(s - snapped) < 1e-9, snapped, s)
    i0 = np.floor(s).astype(np.int64)
    # one integer mod; the other taps follow through a wrapped index table
    base = np.mod(i0 - 1, n)
    wrap = np.arange(n + 3) % n
    idx = [base] + [wrap[base + o] for o in (1, 2, 3)]
    return idx, lagrange4_weights(s - i0)


class Interpolator:
    """Periodic 4-point Lagrange interpolation at a fixed set of points.

    Precomputes indices and weights once (:func:`lagrange4_taps` per
    axis); one call interpolates a whole stack of fields (velocity
    components, gradient entries, form coefficients) at the same points.
    Points landing on grid nodes reproduce nodal values bit-exactly.
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
            idx, w = lagrange4_taps(flat[:, a], grid.spacing[a], grid.dims[a], a)
            stride = math.prod(grid.dims[a + 1:])
            self._idx.append([i * stride for i in idx])
            self._w.append(w)

    def __call__(self, values) -> np.ndarray:
        """Interpolate fields of shape ``extra + grid.dims``; returns
        ``extra + shape`` (a single field is the case ``extra == ()``)."""
        values = np.asarray(values, dtype=float)
        end = values.ndim - self.grid.d
        if end < 0 or values.shape[end:] != self.grid.dims:
            raise ValueError(f"values shape {values.shape} is not extra + "
                             f"grid dims {self.grid.dims}")
        rows = values.reshape(-1, self.grid.npoints, 1)
        out = np.empty((rows.shape[0], self._idx[0][0].size, 1))
        self.gather(rows, out, np.empty(out.shape))
        return out.reshape(values.shape[:end] + self.shape)

    def gather(self, rows, out, tap, start: int = 0) -> None:
        """The one gather kernel, which :meth:`__call__` runs over every
        point: ``out`` gets the interpolation of ``rows`` at the points
        ``start`` to ``start + out.shape[1] - 1``.

        ``rows`` has shape ``(m, grid.npoints, L)``; ``out`` and ``tap``,
        the scratch each tap is gathered into, have shape ``(m, count,
        L)``, and ``tap`` is C-contiguous.  A range of points gets the bits
        that a call over all of them gives it, so disjoint ranges can run
        in parallel into slices of one output.
        """
        stop = start + out.shape[1]
        out.fill(0.0)
        for offs in itertools.product(range(4), repeat=self.grid.d):
            w = self._w[0][offs[0]][start:stop]
            flat = self._idx[0][offs[0]][start:stop]
            for a in range(1, self.grid.d):
                w = w * self._w[a][offs[a]][start:stop]
                flat = flat + self._idx[a][offs[a]][start:stop]
            # every index is in range: "clip" changes none, and unlike
            # "raise" it writes into tap without a buffered copy
            rows.take(flat, axis=1, out=tap, mode="clip")
            tap *= w[:, None]
            out += tap


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
