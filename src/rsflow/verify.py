"""Frozen-in verification harness.

Advects flow maps (particles + Jacobians) through stored velocity
histories, pulls decomposed vorticity components back, forms PDE
residuals of the Lie-invariance laws, runs the closed-form identity
suite, and fits observed convergence orders across resolutions.

The frozen-in law is checked in its integral form: the pullback of each
component 2-form along the flow map must reproduce the initial
component.  A PDE-residual route is provided as well; the two probe the
same statement through independent machinery.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rsff
from .exterior import (DiscreteMap, KForm, exterior_derivative,
                       jacobian_minor, lie_derivative_cartan,
                       lie_derivative_components, pullback, wedge)
from .fields import (MIN_DIM, Grid, Interpolator, VectorField, check_finite,
                     derivative, lagrange4_taps, lagrange4_weights, map_slabs,
                     restrict, with_halo)
from .rsf import component_vorticities, decomposition_plan
from .solver import SimulationResult, SolverConfig, rk4, run_simulation
from .trig import TrigPoly

__all__ = [
    "VelocityHistory", "FlowMap", "VerificationReport", "advect_flowmap",
    "pullback_error", "residual_pde", "lemma1_check", "identity_suite",
    "wedge_invariant_study", "frozen_in_errors", "kinematic_history",
    "kinematic_frozen_case", "frozen_convergence_study", "fit_order",
]


# ----------------------------------------------------------------------
# velocity histories
# ----------------------------------------------------------------------

def _check_snapshot(name, comps, grid: Grid) -> None:
    """A history snapshot is an RSF velocity on a 3D grid: u1 and u2 once
    per column as ``dims[:2]`` arrays, u3 as a ``dims`` array."""
    if grid.d != 3:
        raise ValueError(f"{name}: velocity history needs a 3D grid, got {grid.d}D")
    if len(comps) != 3:
        raise ValueError(f"{name}: needs 3 velocity components, got {len(comps)}")
    for c, values in enumerate(comps):
        want = grid.dims[:2] if c < 2 else grid.dims
        if np.shape(values) != want:
            raise ValueError(f"{name}: u{c + 1} has shape {np.shape(values)}, "
                             f"expected {want}")


def _columns(name, comps, grid: Grid) -> list:
    """A snapshot given as three 3D arrays, as arrays that hold their own
    values and nothing more, so none keeps a 3D array alive: u1 and u2
    once per column (layer 0) in 2D, and u3 as it is.  A u1 or u2
    broadcast along x3 (as an RSFF v2 file stores it) is its stored 2D
    array.  The frozen-in law holds only for RSF flows, so a 3D u1 or u2
    (as an RSFF v1 file holds it) that varies along x3 is a
    ``ValueError``."""
    layers = [v[..., 0] for v in comps[:2]]
    _check_snapshot(name, layers + list(comps[2:]), grid)
    for c, layer in enumerate(layers):
        if not comps[c].strides[2]:
            continue
        dev = float(np.max(np.abs(comps[c] - layer[..., None])))
        if dev > 0:
            raise ValueError(f"{name}: u{c + 1} varies along x3 by up to "
                             f"{dev:.3g}; an RSF history needs u1 and u2 "
                             f"constant along x3")
    return [np.ascontiguousarray(v) for v in layers] + [comps[2]]


class VelocityHistory:
    """Uniformly spaced RSF velocity snapshots with cubic time interpolation.

    Each snapshot is ``[u1, u2, u3]``: u1 and u2 do not depend on x3 and
    are held once per column as ``dims[:2]`` arrays, u3 as a ``dims``
    array.
    """

    def __init__(self, grid: Grid, times, snapshots):
        self._hold(grid, times, snapshots)
        for i, comps in enumerate(self.snapshots):
            check_finite(self._name(i), comps)

    def _hold(self, grid: Grid, times, snapshots) -> None:
        """``__init__`` without its NaN/Inf scan of the snapshots, for
        arrays that their reader has scanned."""
        times = [float(t) for t in times]
        if len(times) < 4:
            raise ValueError(f"cubic time interpolation needs at least 4 "
                             f"snapshots, got {len(times)}")
        check_finite("", [times], ["snapshot time"])
        dts = np.diff(times)
        if np.any(dts <= 0):
            raise ValueError("snapshot times must be strictly increasing")
        if np.max(dts) - np.min(dts) > 1e-9 * np.max(dts):
            raise ValueError("snapshot times must be uniformly spaced")
        self.grid = grid
        self.times = times
        self.snapshots = [list(s) for s in snapshots]
        if len(self.snapshots) != len(times):
            raise ValueError("times/snapshots length mismatch")
        for i, comps in enumerate(self.snapshots):
            _check_snapshot(self._name(i), comps, grid)
        self.dt = times[1] - times[0]

    def _name(self, index: int) -> str:
        return f"snapshot {index} (t = {self.times[index]:.6g})"

    @classmethod
    def from_result(cls, result: SimulationResult) -> "VelocityHistory":
        # the solver's u1 and u2 are 2D; a snapshot holds them broadcast
        return cls(result.grid3, result.times,
                   [[u1[:, :, 0], u2[:, :, 0], u3]
                    for u1, u2, u3 in result.snapshots])

    @classmethod
    def from_rsff_dir(cls, path) -> "VelocityHistory":
        files = sorted(Path(path).glob("snap_*.rsff"))
        if not files:
            raise ValueError(f"no snap_*.rsff files in {path}")
        times, snaps, grid = [], [], None
        for f in files:
            vf, t = rsff.read_field(f)
            grid = grid or vf.grid
            if vf.grid != grid:
                raise ValueError(f"{f}: grid {vf.grid.dims} differs from "
                                 f"{files[0].name}'s {grid.dims}")
            times.append(t)
            snaps.append(_columns(f, [c.values for c in vf.components], grid))
        history = cls.__new__(cls)
        history._hold(grid, times, snaps)  # read_field scanned every value
        return history

    @property
    def t0(self) -> float:
        return self.times[0]

    @property
    def t1(self) -> float:
        return self.times[-1]

    def velocity_field(self, index: int) -> VectorField:
        u1, u2, u3 = self.snapshots[index]
        dims = self.grid.dims
        return VectorField.from_arrays(
            self.grid, [np.broadcast_to(u1[:, :, None], dims),
                        np.broadcast_to(u2[:, :, None], dims), u3])

    def velocity_at(self, t: float) -> tuple:
        """Velocity and its gradient at time t as two stacks, ``(cols,
        full)``.

        ``cols`` has shape ``(6,) + dims[:2]``: row c is u_c and row
        2 + 2k + c is du_c/dx_k, for c, k < 2 (du1/dx3 = du2/dx3 = 0).
        ``full`` has shape ``(4,) + dims``: row 0 is u3 and row 1 + k is
        du3/dx_k, for k < 3.

        Cubic Lagrange in time over the 4 snapshots j..j+3 around t.
        """
        j = int(np.searchsorted(self.times, t)) - 2
        j = max(0, min(j, len(self.times) - 4))
        w = lagrange4_weights((t - self.times[j + 1]) / self.dt)
        return (self._stack((0, 1), self.grid.dims[:2], j, w),
                self._stack((2,), self.grid.dims, j, w))

    def _stack(self, comps, dims, j, w) -> np.ndarray:
        """Rows ``comps`` of the time combination and then their
        gradients, one x1-slab at a time (:func:`map_slabs`): each slab
        combines its planes and their :func:`with_halo` planes, so its
        derivatives read values still in cache.  Every value is the one a
        whole-grid pass gives, bit for bit."""
        n, nd = len(comps), len(dims)
        out = np.empty((n * (1 + nd),) + dims)
        grads = out[n:].reshape((nd, n) + dims)
        h = self.grid.spacing
        snaps = self.snapshots[j:j + 4]

        def slab(a, b):
            for i, c in enumerate(comps):
                planes, halo = with_halo(snaps[0][c], a, b)
                acc = w[0] * planes
                for m in range(1, 4):
                    acc = acc + w[m] * with_halo(snaps[m][c], a, b)[0]
                out[i, a:b] = acc[halo:halo + b - a]
                for k in range(nd):
                    grads[k, i, a:b] = derivative(acc, k, h[k], halo)

        map_slabs(slab, dims[0], math.prod(dims[1:]))
        return out


@dataclass(frozen=True, eq=False)
class FlowMap:
    """Particle endpoints and Jacobians from t0 to t1.

    ``health`` holds what advection saw: particle count, substeps and the
    range of det J at t1 (empty for a map that was not advected).
    """

    t0: float
    t1: float
    map: DiscreteMap
    health: dict = field(default_factory=dict)


def advect_flowmap(history: VelocityHistory, t0: float, t1: float,
                   substeps: int, stride: int = 1) -> FlowMap:
    """RK4 particle advection with the variational Jacobian equation.

    One particle per node of the (optionally stride-subsampled) grid.
    The Jacobian evolves as dJ/dt = J . grad u evaluated along the path.

    Every particle of a column shares (x1, x2): the horizontal path x_h
    and the block J[:2, :2] advance once per column.  One
    :class:`Interpolator` on the (x1, x2) plane per RK stage gathers u1,
    u2 and their gradients at the columns with 16 taps.  The columns are
    then cut into chunks of about 512 KB of x3-lines, run as jobs by
    :func:`map_slabs` (on the shared pool for a large map).  A chunk's
    job gathers its columns' whole x3-lines of u3 and its gradient with
    the same 16 taps (:meth:`Interpolator.gather`) and, while the lines
    are in cache, takes 4 taps per particle along x3.  These give x3's
    velocity and the slope of the column J[:, 2]:
    d J[:2, 2]/dt = J[:2, :2] . grad_h u3 + J[:2, 2] du3/dx3 and
    d J[2, 2]/dt = J[2, 2] du3/dx3.  Each value is the one a pass over
    all columns at once gives, bit for bit.  J[2, :2] is zero because it
    is never computed; the full x and J are assembled once, at t1.
    """
    if not (history.t0 - 1e-12 <= t0 <= t1 <= history.t1 + 1e-12):
        raise ValueError("requested interval outside history span")
    if substeps < 1:
        raise ValueError("need at least one substep")
    fine = history.grid
    if stride < 1 or any(n % stride for n in fine.dims):
        raise ValueError(f"particle stride {stride} must be >= 1 and divide "
                         f"every axis of the grid {fine.dims}")
    dims = tuple(n // stride for n in fine.dims)
    if min(dims) < MIN_DIM:
        raise ValueError(f"particle stride {stride} leaves {dims} particles "
                         f"on the grid {fine.dims}; every axis needs at "
                         f"least MIN_DIM = {MIN_DIM}")
    coarse = Grid(dims, fine.length)
    plane = Grid(fine.dims[:2], fine.length[:2])
    n2, h2 = fine.dims[2], fine.spacing[2]
    pts = coarse.points().reshape(-1, dims[2], 3)  # column, layer, axis
    ncol = len(pts)
    # state, component axes first: x_h (2, col), J[:2, :2] (2, 2, col),
    # x3 (col, layer), J[:, 2] (3, col, layer)
    y = [pts[:, 0, :2].T, np.broadcast_to(np.eye(2)[..., None], (2, 2, ncol)),
         pts[..., 2], np.broadcast_to(np.eye(3)[:, 2, None, None],
                                      (3,) + pts.shape[:2])]

    memo = {}  # the velocity stacks at the last stage time only
    # the gathered (u3, grad u3) x3-lines, a scratch array for their taps
    # and the vertical taps' result, made here once: a chunk's job works
    # in its slices of them and allocates nothing large itself
    nrow = 4  # rows of the full stack: u3 and du3/dx_k
    lines = np.empty(nrow * ncol * n2)
    scratch = np.empty(nrow * ncol * n2)
    v = np.empty((nrow, ncol, dims[2]))

    def deriv(t, state):
        if t not in memo:
            memo.clear()
            memo[t] = history.velocity_at(t)
        cols, full = memo[t]
        xh, jh, x3, jv = state
        itp = Interpolator(plane, xh.T)
        vh = itp(cols)
        rows = full.reshape(nrow, -1, n2)
        djv = np.empty(jv.shape)

        def chunk(a, b):
            """Columns a..b-1: their x3-lines, then 4 taps per particle
            along x3 while the lines are in cache, then their slope of
            J[:, 2]."""
            part = slice(nrow * a * n2, nrow * b * n2)
            own = lines[part].reshape(nrow, b - a, n2)
            itp.gather(rows, own, scratch[part].reshape(own.shape), a)
            idx, w = lagrange4_taps(x3[a:b], h2, n2, axis=2,
                                    first=a * dims[2])
            own = own.reshape(nrow, -1)
            start = np.arange(b - a)[:, None] * n2  # of each line in own
            vc = v[:, a:b]
            tap = scratch[part][:vc.size].reshape(vc.shape)
            vc.fill(0.0)
            for i, wi in zip(idx, w):
                own.take(start + i, axis=1, out=tap, mode="clip")
                tap *= wi
                vc += tap
            g = vc[1:]  # du3/dx_k
            out = djv[:, a:b]
            np.multiply(jv[:, a:b], g[2], out=out)
            out[:2] += jh[:, 0, a:b, None] * g[0] + jh[:, 1, a:b, None] * g[1]

        map_slabs(chunk, ncol, nrow * n2)
        gh = vh[2:].reshape(2, 2, ncol)  # [k, c] = du_c/dx_k
        # copy the velocity rows: a view would keep the gradient rows alive
        return [vh[:2].copy(), jh[:, :1] * gh[0] + jh[:, 1:] * gh[1],
                v[0].copy(), djv]

    # k2 and k3 share a stage time, and a substep ends at the bit-equal
    # start time of the next, so each distinct time is evaluated once
    dt = (t1 - t0) / substeps
    t = t0
    for _ in range(substeps):
        y = rk4(deriv, y, t, dt)
        t += dt

    xh, jh, x3, jv = y
    x = np.empty(pts.shape)
    x[..., :2] = xh.T[:, None]
    x[..., 2] = x3
    jac = np.zeros(pts.shape + (3,))
    jac[..., :2, :2] = np.moveaxis(jh, -1, 0)[:, None]
    jac[..., 2] = np.moveaxis(jv, 0, -1)
    x, jac = x.reshape(-1, 3), jac.reshape(-1, 3, 3)
    with np.errstate(invalid="ignore"):  # the fold check names a NaN det J
        det = jacobian_minor(jac, range(3), range(3))
    if not np.min(det) > 0:
        bad = int(np.argmin(det))
        raise RuntimeError(f"flow map folded: det J = {det[bad]:.3g} "
                           f"at particle {bad}")
    images = VectorField.from_arrays(
        coarse, [x[:, c].reshape(dims) for c in range(3)])
    dmap = DiscreteMap(coarse, images, jac.reshape(dims + (3, 3)),
                       det.reshape(dims))
    health = {"particles": len(x), "substeps": substeps,
              "det_min": float(np.min(det)), "det_max": float(np.max(det))}
    return FlowMap(t0, t1, dmap, health)


# ----------------------------------------------------------------------
# error measures
# ----------------------------------------------------------------------

def _restrict_form(form: KForm, coarse: Grid) -> KForm:
    if form.grid == coarse:
        return form
    return form.map_coeffs(lambda c: restrict(c, coarse))


def pullback_error(omega_t1: KForm, flow_map: FlowMap, omega_t0: KForm) -> dict:
    """Norms of Phi* omega(t1) - omega(t0), absolute and normalized."""
    if omega_t1.degree != omega_t0.degree:
        raise ValueError("degree mismatch")
    pulled = pullback(flow_map.map, omega_t1)
    ref = _restrict_form(omega_t0, flow_map.map.grid)
    diff = pulled - ref
    linf, l2 = diff.max_abs(), diff.l2()
    ref_linf, ref_l2 = ref.max_abs(), ref.l2()
    return {"linf": linf, "l2": l2,
            "linf_normalized": linf / ref_linf if ref_linf else math.inf,
            "l2_normalized": l2 / ref_l2 if ref_l2 else math.inf}


def _lie_residual_terms(u, forms, dt: float) -> tuple:
    """The two terms of the residual of d/dt f + L_u f = 0 at the middle
    of ``forms = (f(t - dt), f(t), f(t + dt))``: the centred time
    difference and the Lie derivative along u."""
    before, now, after = forms
    return ((after - before).scale(1.0 / (2.0 * dt)),
            lie_derivative_cartan(u, now))


def residual_pde(history: VelocityHistory, component_series: list) -> dict:
    """Per-component residual norms plus the operator-linearity check.

    ``component_series[i]`` is the time series of component i, aligned
    with the history; residuals are taken at the interior snapshots.  The
    linearity discrepancy compares the residual of the summed form against
    the sum of the component residuals, relative to the magnitude of the
    operator terms themselves (the residual is a near-cancelling
    difference, so normalizing by it would measure cancellation rather
    than linearity).
    """
    if any(len(series) != len(history.times) for series in component_series):
        raise ValueError("form series misaligned with history times")
    interior = range(1, len(history.times) - 1)
    velocities = [history.velocity_field(m) for m in interior]

    def terms(series):
        return [_lie_residual_terms(u, series[m - 1:m + 2], history.dt)
                for u, m in zip(velocities, interior)]

    per_component = []
    stacked = None
    for series in component_series:
        res = [dform + lie for dform, lie in terms(series)]
        per_component.append({
            "times": [history.times[m] for m in interior],
            "linf": [r.max_abs() for r in res],
            "l2": [r.l2() for r in res],
        })
        stacked = res if stacked is None else [a + b for a, b in zip(stacked, res)]
    total_series = [sum(forms[1:], forms[0]) for forms in zip(*component_series)]
    total_terms = terms(total_series)
    scale = max([1e-300] + [t.max_abs() for pair in total_terms for t in pair])
    lin = max((dform + lie - s).max_abs()
              for (dform, lie), s in zip(total_terms, stacked)) / scale
    return {"components": per_component, "linearity_rel_discrepancy": lin}


# ----------------------------------------------------------------------
# closed-form identity checks
# ----------------------------------------------------------------------

def _random_form(d, degree, rng, axes=None):
    pool = list(itertools.combinations(range(1, d + 1) if axes is None
                                       else [a + 1 for a in axes], degree))
    rng.shuffle(pool)
    coeffs = {}
    for tup in pool[:min(3, len(pool))]:
        coeffs[tup] = TrigPoly.random(d, 2, rng, nterms=2, axes=axes)
    return KForm(d, degree, coeffs)


def lemma1_check(d: int, k: int, seed: int, violate: bool = False) -> float:
    """Trivial-extension identity: L with the full velocity equals L with
    the first k components when those components and the form do not
    depend on the extra coordinates.

    ``violate`` injects a dependence on coordinate k+1 into the form, the
    negative control confirming the hypothesis is needed.
    """
    if not (3 <= d <= 12 and 1 <= k < d):
        raise ValueError(f"lemma 1 check needs 3 <= d <= 12 and 1 <= k < d, "
                         f"got d = {d}, k = {k}")
    rng = np.random.default_rng(seed)
    inner = list(range(k))
    u = [TrigPoly.random(d, 2, rng, axes=inner) for _ in range(k)]
    u += [TrigPoly.random(d, 2, rng) for _ in range(k, d)]
    degree = 2 if k >= 2 else 1
    omega = _random_form(d, degree, rng, axes=inner)
    if violate:
        bad = {t: c * TrigPoly.cos(d, tuple(1 if a == k else 0 for a in range(d)))
               for t, c in omega.coeffs.items()}
        omega = KForm(d, degree, bad)
    full = lie_derivative_cartan(u, omega)
    trunc = lie_derivative_cartan(u[:k], omega)
    return (full - trunc).max_abs()


def identity_suite(dims=range(3, 9), seeds=20) -> dict:
    """Machine-precision identity battery on random closed-form fields.

    Returns the worst discrepancy per identity over all dimensions/seeds:
    d o d = 0, Cartan vs. component Lie derivative, d-L commutation,
    Leibniz over the wedge, and the trivial-extension lemma.
    """
    if seeds < 1:
        raise ValueError(f"identity suite needs seeds >= 1, got {seeds}")
    dims = list(dims)
    if not dims:
        raise ValueError("identity suite needs at least one d")
    for d in dims:
        if not 3 <= d <= 12:
            raise ValueError(f"identity suite needs 3 <= d <= 12, got d = {d}")
    worst = {"dd_zero": 0.0, "cartan_vs_components": 0.0,
             "d_commutes_lie": 0.0, "leibniz": 0.0, "lemma1": 0.0}
    for d in dims:
        for seed in range(seeds):
            rng = np.random.default_rng(10_000 * d + seed)
            u = [TrigPoly.random(d, 2, rng) for _ in range(d)]
            omega1 = _random_form(d, 1, rng)
            omega2 = _random_form(d, 2, rng)
            d1 = exterior_derivative(omega1)
            lie1 = lie_derivative_cartan(u, omega1)
            lie2 = lie_derivative_cartan(u, omega2)
            worst["dd_zero"] = max(
                worst["dd_zero"], exterior_derivative(d1).max_abs(),
                exterior_derivative(exterior_derivative(omega2)).max_abs())
            for omega, lie in ((omega1, lie1), (omega2, lie2)):
                diff = lie - lie_derivative_components(u, omega)
                worst["cartan_vs_components"] = max(
                    worst["cartan_vs_components"], diff.max_abs())
            comm = exterior_derivative(lie1) - lie_derivative_cartan(u, d1)
            worst["d_commutes_lie"] = max(worst["d_commutes_lie"], comm.max_abs())
            lhs = lie_derivative_cartan(u, wedge(omega1, omega2))
            rhs = wedge(lie1, omega2) + wedge(omega1, lie2)
            worst["leibniz"] = max(worst["leibniz"], (lhs - rhs).max_abs())
            worst["lemma1"] = max(worst["lemma1"],
                                  lemma1_check(d, max(2, d // 2), seed))
    return worst


# ----------------------------------------------------------------------
# manufactured frozen-in campaign
# ----------------------------------------------------------------------

def frozen_in_errors(history: VelocityHistory,
                     transport: VelocityHistory) -> dict:
    """Pullback errors of the two component 2-forms of a 3D history.

    The forms come from the first and last snapshots of ``history``; the
    flow map is advected over the same interval through ``transport``
    (``history`` itself, or a corrupted copy for a negative control).
    Every s-th node along each axis carries a particle, with the stride
    s = gcd(*dims, max(1, min(dims) // 32)) dividing every axis (1, 2, 4
    on the cubes N = 32, 64, 128).  The map takes 2 RK4 substeps per
    snapshot interval; ``"flowmap"`` reports the map's health
    (:attr:`FlowMap.health`).
    """
    plan = decomposition_plan(3)
    omegas_t0 = component_vorticities(history.velocity_field(0), plan)
    omegas_t1 = component_vorticities(history.velocity_field(-1), plan)
    dims = history.grid.dims
    stride = math.gcd(*dims, max(1, min(dims) // 32))
    substeps = 2 * (len(history.times) - 1)
    fmap = advect_flowmap(transport, history.t0, history.t1, substeps,
                          stride=stride)
    return {"omega_h": pullback_error(omegas_t1[0], fmap, omegas_t0[0]),
            "omega_rest": pullback_error(omegas_t1[1], fmap, omegas_t0[1]),
            "flowmap": fmap.health}


def kinematic_history(n: int, seed: int = 11) -> VelocityHistory:
    """The manufactured frozen-in history at resolution n^3: the kinematic
    Taylor-Green scenario integrated to t = 1 (u3 of amplitude 0.3 with
    wavenumbers up to 1), one snapshot every 2 steps."""
    cfg = SolverConfig(mode="kinematic_tg", dims=(n, n, n), t_end=1.0,
                       snapshot_stride=2, seed=seed, kmax=1, amplitude=0.3)
    result = run_simulation(cfg)
    try:
        return VelocityHistory.from_result(result)
    except ValueError as exc:  # too few snapshots on a coarse grid
        raise ValueError(f"resolution {n}: {exc}") from exc


def kinematic_frozen_case(n: int, seed: int = 11) -> dict:
    """Pullback errors of :func:`kinematic_history` advected through
    itself (:func:`frozen_in_errors`), with n and the snapshot count."""
    history = kinematic_history(n, seed)
    return {"n": n, "snapshots": len(history.times),
            **frozen_in_errors(history, history)}


def fit_order(ns, errors) -> float:
    """Observed order: minus the slope of log2(error) against log2(n)."""
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(ns) < 2:
        raise ValueError("need at least two resolutions")
    if np.any(errors <= 0):
        return math.inf  # below floor: no slope to fit
    slope = np.polyfit(np.log2(ns), np.log2(errors), 1)[0]
    return -float(slope)


@dataclass
class VerificationReport:
    scenario: str
    resolutions: list
    metrics: dict = field(default_factory=dict)   # name -> list of errors
    orders: dict = field(default_factory=dict)    # name -> fitted order
    extras: dict = field(default_factory=dict)


def frozen_convergence_study(resolutions=(32, 64, 128)) -> VerificationReport:
    """Manufactured frozen-in convergence across nested resolutions."""
    res = sorted(resolutions)
    if len(res) < 3:
        raise ValueError("need at least 3 resolutions")
    if res[0] < MIN_DIM:
        raise ValueError(f"resolutions must be at least {MIN_DIM}, got {res[0]}")
    for a, b in zip(res, res[1:]):
        if a == b:
            raise ValueError(f"resolutions must be distinct, got {a} twice")
        if b % a:
            raise ValueError(f"resolutions must be nested, got {a} and {b}")
    report = VerificationReport("kinematic_tg_frozen", list(res))
    errs_h, errs_rest, health = [], [], []
    for n in res:
        case = kinematic_frozen_case(n)
        errs_h.append(case["omega_h"]["l2_normalized"])
        errs_rest.append(case["omega_rest"]["l2_normalized"])
        health.append(case["flowmap"])
    report.metrics["omega_h_l2_normalized"] = errs_h
    report.metrics["omega_rest_l2_normalized"] = errs_rest
    report.orders["omega_h"] = fit_order(res, errs_h)
    report.orders["omega_rest"] = fit_order(res, errs_rest)
    report.extras["flowmap"] = health
    return report


# ----------------------------------------------------------------------
# wedge invariants (d = 4)
# ----------------------------------------------------------------------

BOOST_D4 = (0.3, -0.2, 0.25, 0.15)


def _boosted_double_tg(grid4: Grid, t: float) -> VectorField:
    """Exact unsteady d=4 RSF Euler solution: two Galilean-boosted
    Taylor-Green cells, one per coordinate plane."""
    base = [
        TrigPoly.sin(4, (1, 0, 0, 0)) * TrigPoly.cos(4, (0, 1, 0, 0)),
        -1.0 * TrigPoly.cos(4, (1, 0, 0, 0)) * TrigPoly.sin(4, (0, 1, 0, 0)),
        TrigPoly.sin(4, (0, 0, 1, 0)) * TrigPoly.cos(4, (0, 0, 0, 1)),
        -1.0 * TrigPoly.cos(4, (0, 0, 1, 0)) * TrigPoly.sin(4, (0, 0, 0, 1)),
    ]
    off = [v * t for v in BOOST_D4]
    ax = [grid4.axis_coords(a) for a in range(4)]
    comps = [c.shifted(off) + v for c, v in zip(base, BOOST_D4)]
    return VectorField.from_arrays(grid4, [c.sample(ax) for c in comps])


def wedge_invariant_study(resolutions=(12, 24, 48)) -> VerificationReport:
    """Invariance of the wedge of the two component 2-forms in d = 4.

    The velocity is an exact unsteady solution, so each component
    residual is pure discretization error; the wedge residual must obey
    the Leibniz bound and converge at the same observed order.  The time
    step scales as h^2 so the centered time difference matches the
    4th-order spatial truncation.
    """
    report = VerificationReport("wedge_invariants_d4", list(resolutions))
    r1s, r2s, rws, bounds = [], [], [], []
    for n in resolutions:
        grid4 = Grid.cube(4, n)
        dt = 0.5 * (12.0 / n) ** 2
        plan = decomposition_plan(4)
        vel = [_boosted_double_tg(grid4, s * dt) for s in (-1, 0, 1)]
        omegas = [component_vorticities(v, plan) for v in vel]
        res = []
        for forms in ([o[0] for o in omegas], [o[1] for o in omegas],
                      [wedge(o[0], o[1]) for o in omegas]):
            dform, lie = _lie_residual_terms(vel[1], forms, dt)
            res.append((dform + lie).max_abs())
        r1s.append(res[0])
        r2s.append(res[1])
        rws.append(res[2])
        # merge-combinatorics constant for a 2-form wedge in d=4
        bounds.append(6.0 * (res[0] * omegas[1][1].max_abs()
                             + omegas[1][0].max_abs() * res[1]))
    report.metrics.update({"residual_1": r1s, "residual_2": r2s,
                           "residual_wedge": rws, "leibniz_bound": bounds})
    report.orders["residual_1"] = fit_order(resolutions, r1s)
    report.orders["residual_2"] = fit_order(resolutions, r2s)
    report.orders["residual_wedge"] = fit_order(resolutions, rws)
    report.extras["bound_satisfied"] = all(r <= b * (1 + 1e-9) + 1e-300
                                           for r, b in zip(rws, bounds))
    return report
