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

import itertools
import math
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


def _as_values(grid, values):
    v = np.asarray(values, dtype=np.float64)
    if v.shape != grid.dims:
        raise ValueError(f"values shape {v.shape} does not match grid dims {grid.dims}")
    if not np.all(np.isfinite(v)):
        raise ValueError("field contains NaN or Inf")
    return v


@dataclass(frozen=True, eq=False)
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.grid, self.values))

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.dims))

    def diff(self, axis: int) -> "ScalarField":
        return partial_derivative(self, axis)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l2(self) -> float:
        return float(np.sqrt(np.mean(self.values ** 2)))

    def __add__(self, other):
        if isinstance(other, ScalarField):
            self._check_grid(other)
            other = other.values
        return ScalarField(self.grid, self.values + other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            self._check_grid(other)
            other = other.values
        return ScalarField(self.grid, self.values - other)

    def __rsub__(self, other):
        return ScalarField(self.grid, other - self.values)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            self._check_grid(other)
            other = other.values
        return ScalarField(self.grid, self.values * other)

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.grid, -self.values)

    def _check_grid(self, other):
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")


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

def _shift(values, axis: int):
    """Periodic neighbour lookup along ``axis``: ``s(k)[i] == values[i + k]``."""
    return lambda k: np.roll(values, -k, axis)


# Both stencils combine neighbours in symmetric pairs first, so an array
# that is constant along ``axis`` (a broadcast view included) differentiates
# to exactly 0 there: the RSF zero pattern holds without rounding noise.

def derivative(values, axis: int, h: float) -> np.ndarray:
    """4th-order centered periodic first derivative of an array along ``axis``."""
    s = _shift(values, axis)
    return (8.0 * (s(1) - s(-1)) - (s(2) - s(-2))) / (12.0 * h)


def second_derivative(values, axis: int, h: float) -> np.ndarray:
    """4th-order centered periodic second derivative of an array along ``axis``."""
    s = _shift(values, axis)
    return (16.0 * (s(1) + s(-1)) - (s(2) + s(-2)) - 30.0 * values) / (12.0 * h * h)


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
