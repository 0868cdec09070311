"""Barotropic real-Schur-flow time integration in a periodic 3D box.

The horizontal velocity lives on a 2D grid (so the RSF zero pattern
holds exactly by construction) while the third component is fully 3D.
Three modes:

* ``constrained`` -- 2D density, exactly self-consistent horizontal
  barotropic subsystem plus the vertical momentum equation with zero
  vertical pressure gradient.
* ``free`` -- 3D density; the horizontal momentum equation is fed the
  vertical average of the horizontal pressure gradient, and the
  consistency residual is logged each snapshot.
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
from .fields import (Grid, ScalarField, VectorField, derivative,
                     second_derivative, taylor_green_2d)
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
    nu: float = 0.0
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
        if self.nu < 0:
            raise ValueError("viscosity must be >= 0")
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
        dims = tuple(int(n) for n in np.atleast_1d(np.asarray(self.dims)))
        if len(dims) == 1:
            dims = dims * 3
        if len(dims) != 3:
            raise ValueError("dims must have 3 entries")
        object.__setattr__(self, "dims", dims)


def _parse_value(default, text: str):
    """``text`` as the type of ``default``, element-wise for a tuple."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(x) for x in text.split(","))
    return type(default)(text)


def parse_config(text: str) -> SolverConfig:
    """Flat key=value config over SolverConfig's fields; unknown keys are rejected."""
    defaults = {f.name: f.default for f in fields(SolverConfig)}
    kw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in defaults:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        kw[key] = _parse_value(defaults[key], val)
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


def _laplacian(v, spacing, axes):
    out = np.zeros_like(v)
    for a in axes:
        out += second_derivative(v, a, spacing[a])
    return out


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

    Raises RuntimeError once max |d3 u3| exceeds U3_GRADIENT_ABORT.
    """
    g2 = state.grid2
    g3 = state.grid3
    h2 = g2.spacing
    h3 = g3.spacing
    u1, u2, u3 = state.u1, state.u2, state.u3
    u1b = u1[:, :, None]
    u2b = u2[:, :, None]

    du3_adv = -(u1b * derivative(u3, 0, h3[0])
                + u2b * derivative(u3, 1, h3[1]))
    # taken last and dropped after use: held across the other derivatives
    # it would raise the peak memory of the step
    d3u3 = derivative(u3, 2, h3[2])
    steep = float(max(np.max(d3u3), -np.min(d3u3)))
    if steep > U3_GRADIENT_ABORT:
        node = np.unravel_index(np.argmax(np.abs(d3u3)), d3u3.shape)
        raise RuntimeError(
            f"vertical self-steepening blew up: |d3 u3| = {steep:.3g} > "
            f"{U3_GRADIENT_ABORT:g} at t={state.time:.6g}, "
            f"node {tuple(int(i) for i in node)}")
    du3_adv -= u3 * d3u3
    del d3u3

    if cfg.mode == "kinematic_tg":
        return None, None, du3_adv, None

    rho = state.rho
    if np.min(rho) <= 0.0:
        raise RuntimeError(f"density non-positive at t={state.time:.6g}")

    pi = cfg.c ** 2 * np.log(rho)
    if cfg.mode == "constrained":
        gp1, gp2 = derivative(pi, 0, h2[0]), derivative(pi, 1, h2[1])
        du3 = du3_adv
        drho = -(derivative(rho * u1, 0, h2[0])
                 + derivative(rho * u2, 1, h2[1]))
    else:  # free: 3D density
        gp1_3d, gp2_3d = derivative(pi, 0, h3[0]), derivative(pi, 1, h3[1])
        gp1 = gp1_3d.mean(axis=2)
        gp2 = gp2_3d.mean(axis=2)
        du3 = du3_adv - derivative(pi, 2, h3[2])
        drho = -(derivative(rho * u1b, 0, h3[0])
                 + derivative(rho * u2b, 1, h3[1])
                 + derivative(rho * u3, 2, h3[2]))

    du1 = -(u1 * derivative(u1, 0, h2[0])
            + u2 * derivative(u1, 1, h2[1])) - gp1
    du2 = -(u1 * derivative(u2, 0, h2[0])
            + u2 * derivative(u2, 1, h2[1])) - gp2
    if cfg.nu > 0:
        du1 += cfg.nu * _laplacian(u1, h2, (0, 1))
        du2 += cfg.nu * _laplacian(u2, h2, (0, 1))
        du3 += cfg.nu * _laplacian(u3, h3, (0, 1, 2))
    return du1, du2, du3, drho


def pressure_consistency_residual(state: FlowState, cfg: SolverConfig) -> float:
    """Free mode: sup deviation of grad_h Pi from its vertical average."""
    if cfg.mode != "free":
        return 0.0
    pi = cfg.c ** 2 * np.log(state.rho)
    h3 = state.grid3.spacing
    worst = 0.0
    for a in (0, 1):
        gp = derivative(pi, a, h3[a])
        worst = max(worst, float(np.max(np.abs(gp - gp.mean(axis=2)[:, :, None]))))
    return worst


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
    """
    def stage(k, s):
        return [a if b is None else a + s * b for a, b in zip(y, k)]

    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, stage(k1, 0.5 * dt))
    k3 = f(t + 0.5 * dt, stage(k2, 0.5 * dt))
    k4 = f(t + dt, stage(k3, dt))
    return [a if b1 is None else a + (dt / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def step_rk4(state: FlowState, cfg: SolverConfig, dt: float) -> FlowState:
    """Classical 4-stage Runge-Kutta step."""
    def slope(t, y):
        return rhs(FlowState(state.grid3, state.grid2, *y, t), cfg)

    y = rk4(slope, [state.u1, state.u2, state.u3, state.rho], state.time, dt)
    new = FlowState(state.grid3, state.grid2, *y, state.time + dt)
    for name, arr in zip(("u1", "u2", "u3", "rho"), y):
        if not np.all(np.isfinite(arr)):
            raise RuntimeError(f"NaN/Inf in {name} after step to t={new.time:.6g}")
    return new


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
    g3 = state.grid3
    rho3 = state.rho if state.rho.ndim == 3 else \
        np.broadcast_to(state.rho[:, :, None], g3.dims)
    vel = assemble_velocity(state)
    u1b, u2b, u3 = (c.values for c in vel.components)
    dv = g3.cell_volume
    energy = 0.5 * dv * float(np.sum(rho3 * (u1b ** 2 + u2b ** 2 + u3 ** 2)))
    if state.rho.ndim == 2:
        mass = state.grid2.cell_volume * float(np.sum(state.rho))
    else:
        mass = dv * float(np.sum(state.rho))
    umax = float(max(np.max(np.abs(state.u1)), np.max(np.abs(state.u2)),
                     np.max(np.abs(state.u3))))
    return {"time": state.time, "energy": energy, "mass": mass,
            "rho_min": float(np.min(state.rho)),
            "rho_max": float(np.max(state.rho)), "umax": umax,
            "rsf_dev": check_rsf(vel, zero_pattern(3)),
            "pressure_residual": pressure_consistency_residual(state, cfg)}


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
                             [ScalarField(st.grid3, c) for c in comps], st.time)
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
