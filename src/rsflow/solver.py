"""Ideal barotropic real-Schur-flow time integration in a periodic 3D box.

The flow is inviscid: the Lie-invariance theorem rsflow checks is stated
for ideal flows.

The horizontal velocity lives on a 2D grid (so the RSF zero pattern
holds exactly by construction) while the third component is fully 3D.
Three modes:

* ``constrained`` -- 2D density, exactly self-consistent horizontal
  barotropic subsystem plus the vertical momentum equation with zero
  vertical pressure gradient.
* ``free`` -- 3D density; the horizontal momentum equation is fed the
  horizontal gradient of the vertical average of Pi = c^2 log rho (the
  stencil is linear, so in exact arithmetic that is the vertical average
  of the horizontal pressure gradient), and the consistency residual is
  logged each snapshot.
* ``kinematic_tg`` -- steady Taylor-Green horizontal field (an exact
  steady Euler solution) advecting an evolving vertical component; the
  manufactured test bed for the frozen-in checks.

Time integration is classical RK4 with a CFL-limited step; the density
equation is discretized in flux form so total mass is conserved to
rounding on the periodic grid.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import rsff
from .fields import (Grid, VectorField, check_finite, derivative, map_slabs,
                     taylor_green_2d, with_halo)
from .rsf import check_rsf, zero_pattern
from .trig import TrigPoly

log = logging.getLogger(__name__)

MODES = ("constrained", "free", "kinematic_tg")
RHO_FLOOR = 0.2
U3_GRADIENT_ABORT = 20.0  # max |d3 u3| before self-steepening counts as blown up


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "constrained"
    c: float = 1.0
    cfl: float = 0.4
    t_end: float = 1.0
    snapshot_stride: int = 1
    seed: int = 0
    kmax: int = 2
    amplitude: float = 0.1
    dims: tuple = (64, 64, 64)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.c <= 0:
            raise ValueError("sound speed must be positive")
        if not 0 < self.cfl < 1:
            raise ValueError("cfl must be in (0, 1)")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")
        if self.kmax < 1:
            raise ValueError(f"kmax must be >= 1, got {self.kmax}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        dims = Grid(self.dims).dims  # the grid's rule, before the kmax bound
        if len(dims) == 1:
            dims = dims * 3
        if len(dims) != 3:
            raise ValueError("dims must have 3 entries")
        if 2 * self.kmax >= min(dims):
            raise ValueError(f"2 * kmax must be < min(dims) = {min(dims)}, "
                             f"got kmax = {self.kmax}")
        object.__setattr__(self, "dims", dims)


def _parse_value(default, text: str):
    """``text`` as the type of ``default``, element-wise for a tuple."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(x) for x in text.split(","))
    return type(default)(text)


def parse_config(text: str) -> SolverConfig:
    """Flat key=value config over SolverConfig's fields; an unknown or
    repeated key, or a value not of its field's type, is rejected with
    its line."""
    defaults = {f.name: f.default for f in fields(SolverConfig)}
    kw, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in defaults:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in lines:
            raise ValueError(f"config line {lineno}: key {key!r} already "
                             f"set on line {lines[key]}")
        lines[key] = lineno
        try:
            kw[key] = _parse_value(defaults[key], val)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {key}: {exc}") from None
    return SolverConfig(**kw)


def format_config(cfg: SolverConfig) -> str:
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(x) for x in value)
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class FlowState:
    """Solver state; u1/u2/rho2 are 2D arrays, u3 (and rho3 if free) 3D."""

    grid3: Grid
    grid2: Grid
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    rho: np.ndarray  # 2D in constrained/kinematic mode, 3D in free mode
    time: float = 0.0


# ----------------------------------------------------------------------
# initial conditions
# ----------------------------------------------------------------------

def init_state(cfg: SolverConfig) -> FlowState:
    """Seeded band-limited random RSF initial data; bit-reproducible.
    ``kinematic_tg`` takes steady Taylor-Green u1, u2 and unit density."""
    grid3 = Grid(cfg.dims)
    grid2 = Grid(cfg.dims[:2])
    ax2 = [grid2.axis_coords(a) for a in range(2)]
    ax3 = [grid3.axis_coords(a) for a in range(3)]
    kinematic = cfg.mode == "kinematic_tg"
    rng = np.random.default_rng(cfg.seed if kinematic else cfg.seed + 1)
    u3 = cfg.amplitude * TrigPoly.band_limited(3, cfg.kmax, rng).sample(ax3)
    if kinematic:
        u1, u2, _ = taylor_green_2d()
        return FlowState(grid3, grid2, u1.sample(ax2), u2.sample(ax2), u3,
                         np.ones(grid2.dims), 0.0)
    rng = np.random.default_rng(cfg.seed)
    u1, u2 = (cfg.amplitude * TrigPoly.band_limited(2, cfg.kmax, rng).sample(ax2)
              for _ in range(2))
    axp = ax3 if cfg.mode == "free" else ax2
    rng = np.random.default_rng(cfg.seed + 2)
    _, pert = (TrigPoly.band_limited(len(axp), cfg.kmax, rng) for _ in range(2))
    rho = 1.0 + cfg.amplitude * pert.sample(axp)
    if np.min(rho) < RHO_FLOOR:
        log.warning("density clipped to floor %.2f (amplitude %.3g too large)",
                    RHO_FLOOR, cfg.amplitude)
        rho = np.maximum(rho, RHO_FLOOR)
    return FlowState(grid3, grid2, u1, u2, u3, rho, 0.0)


# ----------------------------------------------------------------------
# right-hand side
# ----------------------------------------------------------------------

def rhs(state: FlowState, cfg: SolverConfig):
    """Tendencies (du1, du2, du3, drho); None marks a frozen variable.

    The 3D terms are computed one x1-slab at a time (:func:`map_slabs`),
    so each slab's derivatives and products stay in cache; every value is
    the one a full-grid pass would give, bit for bit.

    Raises RuntimeError once max |d3 u3| exceeds U3_GRADIENT_ABORT, and
    then for a non-positive density.
    """
    g2 = state.grid2
    g3 = state.grid3
    h2 = g2.spacing
    h3 = g3.spacing
    u1, u2, u3 = state.u1, state.u2, state.u3
    u1b = u1[:, :, None]
    u2b = u2[:, :, None]
    rho = state.rho
    kinematic = cfg.mode == "kinematic_tg"
    # checked before the slabs, which take log rho in free mode, and raised
    # after them: a too steep u3 is reported first
    positive = kinematic or not np.min(rho) <= 0.0
    free = cfg.mode == "free" and positive
    du3 = np.empty(u3.shape)
    if free:
        drho = np.empty(u3.shape)
        gp1 = np.empty(g2.dims)
        gp2 = np.empty(g2.dims)

    def slab(a, b):
        """Planes a..b-1 of du3 (and of drho, gp1, gp2 when free); returns
        max |d3 u3| there, and its node if it is past the abort value."""
        own = u3[a:b]
        out = du3[a:b]
        u3_h, halo = with_halo(u3, a, b)
        np.multiply(u1b[a:b], derivative(u3_h, 0, h3[0], halo), out=out)
        tmp = derivative(u3_h, 1, h3[1], halo)
        tmp *= u2b[a:b]
        out += tmp
        np.negative(out, out=out)
        d3u3 = derivative(u3_h, 2, h3[2], halo)
        steep = max(np.max(d3u3), -np.min(d3u3))
        node = None
        if steep > U3_GRADIENT_ABORT:
            i = np.unravel_index(np.argmax(np.abs(d3u3)), d3u3.shape)
            node = (a + int(i[0]), int(i[1]), int(i[2]))
        d3u3 *= own
        out -= d3u3
        if free:
            rho_h, _ = with_halo(rho, a, b)
            pi = cfg.c ** 2 * np.log(rho_h)
            pm = pi.mean(axis=2)  # with the halo rows its x1-stencil reads
            gp1[a:b] = derivative(pm, 0, h2[0], halo)
            gp2[a:b] = derivative(pm[halo:halo + b - a], 1, h2[1])
            out -= derivative(pi, 2, h3[2], halo)
            flux = derivative(rho_h * with_halo(u1b, a, b)[0], 0, h3[0], halo)
            flux += derivative(rho[a:b] * u2b[a:b], 1, h3[1])
            flux += derivative(rho[a:b] * own, 2, h3[2])
            np.negative(flux, out=drho[a:b])
        return steep, node

    parts = map_slabs(slab, u3.shape[0], u3[0].size)
    steeps = [steep for steep, _ in parts]
    steep = float(np.max(steeps))
    if steep > U3_GRADIENT_ABORT:
        # the first slab holding the largest |d3 u3| names its first node
        node = parts[np.argmax(steeps)][1]
        raise RuntimeError(
            f"vertical self-steepening blew up: |d3 u3| = {steep:.3g} > "
            f"{U3_GRADIENT_ABORT:g} at t={state.time:.6g}, node {node}")

    if kinematic:
        return None, None, du3, None
    if not positive:
        node = np.unravel_index(np.argmin(rho), rho.shape)
        raise RuntimeError(f"density non-positive at t={state.time:.6g}: "
                           f"rho = {rho[node]} at node {tuple(map(int, node))}")

    if cfg.mode == "constrained":
        pi = cfg.c ** 2 * np.log(rho)
        gp1, gp2 = derivative(pi, 0, h2[0]), derivative(pi, 1, h2[1])
        drho = -(derivative(rho * u1, 0, h2[0])
                 + derivative(rho * u2, 1, h2[1]))

    du1 = -(u1 * derivative(u1, 0, h2[0])
            + u2 * derivative(u1, 1, h2[1])) - gp1
    du2 = -(u1 * derivative(u2, 0, h2[0])
            + u2 * derivative(u2, 1, h2[1])) - gp2
    return du1, du2, du3, drho


# ----------------------------------------------------------------------
# stepping
# ----------------------------------------------------------------------

def cfl_dt(state: FlowState, cfg: SolverConfig) -> float:
    umax = max(np.max(np.abs(state.u1)), np.max(np.abs(state.u2)),
               np.max(np.abs(state.u3)))
    ceff = 0.0 if cfg.mode == "kinematic_tg" else cfg.c
    speed = float(umax) + ceff
    hmin = min(state.grid3.spacing)
    if speed <= 0:
        return cfg.cfl * hmin  # rest state: any step works
    return cfg.cfl * hmin / speed


def rk4(f, y: list, t: float, dt: float) -> list:
    """One classical Runge-Kutta step of dy/dt = f(t, y) for a list of arrays.

    ``f(t, y)`` returns one slope per entry of ``y``; a ``None`` slope
    leaves its entry unchanged (the same object).  The stages are
    ``y + s * k`` and the update is ``y + (dt / 6)(k1 + 2 k2 + 2 k3 + k4)``.
    Each slope is folded into an accumulator as soon as it is known and
    then dropped, so an entry holds at most four full-size arrays at once
    (``y``, the accumulator, one stage, one slope).  The
    accumulator starts as ``2 k2 + k1``; ``2 k3`` and then ``k4`` are added
    to it in place, and it is scaled by ``dt / 6`` and ``y`` added in the
    same pass as ``k4``.  Every array is formed one x1-slab at a time
    (:func:`map_slabs`), shaped like its entry and of the dtype
    ``result_type(y, k1, k2, 1.0)``; a 0-d entry is one call.  Neither
    ``y`` nor a slope is written to.  IEEE addition commutes and doubling
    is exact, so the sum ``2 k2 + k1 + 2 k3 + k4`` is the bits of the
    formula above.
    """
    def combine(job, *arrays, out=None):
        """``job(out, *arrays)`` one x1-slab at a time; ``out`` is by
        default a fresh array shaped like ``arrays[0]``."""
        if out is None:
            out = np.empty(np.shape(arrays[0]), np.result_type(*arrays, 1.0))
        if not out.ndim:
            job(out, *arrays)
            return out

        def slab(a, b):
            job(out[a:b], *[x[a:b] for x in arrays])

        map_slabs(slab, len(out), math.prod(out.shape[1:]))
        return out

    def stage(k, s):
        def job(out, a, b):
            np.multiply(b, s, out=out)
            out += a
        return [a if b is None else combine(job, a, b) for a, b in zip(y, k)]

    def fold(job, *ks):
        # a helper, so that no loop variable keeps a slope alive afterwards
        for i, c in enumerate(acc):
            if c is not None:
                combine(job, *[k[i] for k in ks], out=c)

    def start(out, a, b1, b2):
        # a is not read: passed to combine, it sets the shape and the dtype
        np.multiply(b2, 2, out=out)
        out += b1

    def add_double(out, b3):
        out += 2 * b3

    def finish(out, a, b4):
        out += b4
        out *= dt / 6.0
        out += a

    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, stage(k1, 0.5 * dt))
    acc = [None if b1 is None else combine(start, a, b1, b2)
           for a, b1, b2 in zip(y, k1, k2)]
    del k1
    s = stage(k2, 0.5 * dt)
    del k2
    k3 = f(t + 0.5 * dt, s)
    del s
    fold(add_double, k3)
    s = stage(k3, dt)
    del k3
    k4 = f(t + dt, s)
    del s
    fold(finish, y, k4)
    return [a if c is None else c for a, c in zip(y, acc)]


def step_rk4(state: FlowState, cfg: SolverConfig, dt: float) -> FlowState:
    """Classical 4-stage Runge-Kutta step."""
    def slope(t, y):
        return rhs(FlowState(state.grid3, state.grid2, *y, t), cfg)

    y = rk4(slope, [state.u1, state.u2, state.u3, state.rho], state.time, dt)
    t = state.time + dt
    check_finite(f"step to t={t:.6g}", y, ("u1", "u2", "u3", "rho"), RuntimeError)
    return FlowState(state.grid3, state.grid2, *y, t)


# ----------------------------------------------------------------------
# diagnostics and the run loop
# ----------------------------------------------------------------------

def assemble_velocity_arrays(state: FlowState):
    """3-component 3D velocity; horizontal parts are broadcast views."""
    dims = state.grid3.dims
    return [np.broadcast_to(state.u1[:, :, None], dims),
            np.broadcast_to(state.u2[:, :, None], dims),
            state.u3]


def assemble_velocity(state: FlowState) -> VectorField:
    return VectorField.from_arrays(state.grid3, assemble_velocity_arrays(state))


def diagnostics(state: FlowState, cfg: SolverConfig) -> dict:
    """Energy, mass, extremes and the two consistency deviations (of the
    RSF zeros, and in free mode max |dk Pi - its vertical mean|, k = 1, 2).
    The 3D passes run one x1-slab at a time (:func:`map_slabs`): the energy
    integrand is written slab by slab into one array and summed by one
    ``np.sum``, and each maximum is one ``np.max`` of per-slab maxima, so
    every value is the whole-grid one, bit for bit, and a NaN stays."""
    g3 = state.grid3
    u1, u2, u3, rho = state.u1, state.u2, state.u3, state.rho
    rho3 = rho if rho.ndim == 3 else rho[:, :, None]
    free = cfg.mode == "free"
    vel = assemble_velocity(state)
    integrand = np.empty(g3.dims)

    def slab(a, b):
        """Planes a..b-1 of rho |u|^2; returns max |u3| there and, when
        free, the two pressure residuals."""
        e = integrand[a:b]
        np.square(u3[a:b], out=e)
        horizontal = u1[a:b] ** 2
        horizontal += u2[a:b] ** 2
        e += horizontal[:, :, None]
        e *= rho3[a:b]
        maxima = [np.max(np.abs(u3[a:b]))]
        if free:
            rho_h, halo = with_halo(rho, a, b)
            pi = cfg.c ** 2 * np.log(rho_h)
            for k in (0, 1):
                gp = derivative(pi, k, g3.spacing[k], halo)
                gp -= gp.mean(axis=2)[:, :, None]
                maxima.append(np.max(np.abs(gp)))
        return maxima

    maxima = np.array(map_slabs(slab, g3.dims[0], g3.npoints // g3.dims[0]))
    u3max = np.max(maxima[:, 0])
    residual = float(np.max(maxima[:, 1:])) if free else 0.0
    dv = g3.cell_volume
    energy = 0.5 * dv * float(np.sum(integrand))
    if rho.ndim == 2:
        mass = state.grid2.cell_volume * float(np.sum(rho))
    else:
        mass = dv * float(np.sum(rho))
    umax = float(max(np.max(np.abs(u1)), np.max(np.abs(u2)), u3max))
    return {"time": state.time, "energy": energy, "mass": mass,
            "rho_min": float(np.min(rho)),
            "rho_max": float(np.max(rho)), "umax": umax,
            "rsf_dev": check_rsf(vel, zero_pattern(3)),
            "pressure_residual": residual}


@dataclass
class SimulationResult:
    config: SolverConfig
    grid3: Grid
    times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)  # [u1b, u2b, u3] arrays
    diagnostics: list = field(default_factory=list)
    final_state: FlowState = None


def run_simulation(cfg: SolverConfig, outdir=None,
                   keep_history: bool = True) -> SimulationResult:
    """Integrate to t_end, snapshotting every ``snapshot_stride`` steps.

    The step count is rounded up to a multiple of the stride so snapshot
    times are uniformly spaced (needed by the verification harness).
    """
    state = init_state(cfg)
    dt0 = cfl_dt(state, cfg)
    stride = cfg.snapshot_stride
    nsteps = max(stride, int(math.ceil(cfg.t_end / dt0)))
    nsteps = stride * int(math.ceil(nsteps / stride))
    dt = cfg.t_end / nsteps

    result = SimulationResult(cfg, state.grid3)
    out = Path(outdir) if outdir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    def snapshot(st):
        comps = assemble_velocity_arrays(st)
        if out is not None:
            rsff.write_field(out / f"snap_{len(result.times):04d}.rsff",
                             VectorField.from_arrays(st.grid3, comps), st.time)
        result.times.append(st.time)
        if keep_history:
            result.snapshots.append(comps)
        result.diagnostics.append(diagnostics(st, cfg))

    snapshot(state)
    for step in range(1, nsteps + 1):
        state = step_rk4(state, cfg, dt)
        if step % stride == 0:
            snapshot(state)
    result.final_state = state

    if out is not None:
        with open(out / "diagnostics.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(result.diagnostics[0]))
            writer.writeheader()
            for row in result.diagnostics:
                writer.writerow(row)
    return result
