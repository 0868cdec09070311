"""Kernel probes: standalone timed calls into one layer at the workloads' sizes.

Each probe times a public rsflow call a few times on inputs made from the
seed and reports the median.  Together with the spans of the traced
passes they give the per-layer metrics; the step, stencil, interpolation,
pullback, TrigPoly-product and RSFF probes also regenerate the kernel
rows of the ROADMAP baseline (``step_rk4`` at 128^3 in all three modes,
the 128^3 stencil).
"""

from __future__ import annotations

import itertools
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from rsflow import exterior, fields, rsf, rsff, solver, trig, verify

# grid sizes per probe: the workloads' own, and tiny ones for the self-test
PROBE_SIZES = {
    "full": {"big": 128, "free": 96, "frozen": 32},
    "tiny": {"big": 16, "free": 16, "frozen": 12},
}
TRIG_D = 6          # dimension of the TrigPoly probes (identities)
TRIG_TERMS = 12     # terms per factor in the product probe


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _harmonic_pool(d, rng, size, kmax=2):
    """``size`` distinct nonzero wavevectors, no two of them opposite."""
    pool: list = []
    while len(pool) < size:
        k = tuple(int(a) for a in rng.integers(-kmax, kmax + 1, size=d))
        if any(k) and k not in pool and tuple(-a for a in k) not in pool:
            pool.append(k)
    return pool


def _pool_trig(d, rng, pool, nterms):
    """Sum of nterms/2 harmonics on wavevectors drawn from ``pool``."""
    out = trig.TrigPoly.zero(d)
    for i in rng.choice(len(pool), size=nterms // 2, replace=False):
        out = out + trig.TrigPoly.harmonic(d, pool[i], float(rng.normal()),
                                           float(rng.uniform(0, 2 * np.pi)))
    return out


def _random_form(d, degree, rng):
    """A form with three random TrigPoly coefficients, as in the battery."""
    pool = list(itertools.combinations(range(1, d + 1), degree))
    picks = rng.choice(len(pool), size=3, replace=False)
    return exterior.KForm(d, degree, {
        pool[i]: trig.TrigPoly.random(d, 2, rng, nterms=2) for i in picks})


def solver_probes(seed: int, sizes: dict, out: dict, workdir: Path) -> None:
    big, nfree = sizes["big"], sizes["free"]
    cfg_c = solver.SolverConfig(mode="constrained", dims=big, seed=seed)
    state_c = solver.init_state(cfg_c)
    dt = solver.cfl_dt(state_c, cfg_c)
    g3 = state_c.grid3
    # the free and kinematic 128^3 states reuse the constrained arrays:
    # step cost does not depend on the values
    rho3 = np.ascontiguousarray(np.broadcast_to(state_c.rho[:, :, None], g3.dims))
    cases = {
        "constrained": (cfg_c, state_c),
        "free_128": (solver.SolverConfig(mode="free", dims=big, seed=seed),
                     solver.FlowState(g3, state_c.grid2, state_c.u1,
                                      state_c.u2, state_c.u3, rho3)),
        "kinematic_tg_128": (
            solver.SolverConfig(mode="kinematic_tg", dims=big, seed=seed),
            solver.FlowState(g3, state_c.grid2, state_c.u1, state_c.u2,
                             state_c.u3, np.ones(state_c.grid2.dims))),
    }
    for label, mode, n in (("free", "free", nfree),
                           ("kinematic_tg", "kinematic_tg", sizes["frozen"])):
        cfg = solver.SolverConfig(mode=mode, dims=n, seed=seed)
        cases[label] = (cfg, solver.init_state(cfg))
    for label, (cfg, state) in cases.items():
        step_dt = solver.cfl_dt(state, cfg)
        out[f"solver.step_rk4_ms.{label}"] = (
            1e3 * _median_s(lambda: solver.step_rk4(state, cfg, step_dt), 3), "ms")
    out["solver.diagnostics_ms"] = (
        1e3 * _median_s(lambda: solver.diagnostics(state_c, cfg_c), 3), "ms")

    u3 = fields.ScalarField(g3, state_c.u3)
    for axis in range(3):
        out[f"fields.stencil_ms.axis{axis}"] = (
            1e3 * _median_s(lambda: fields.partial_derivative(u3, axis), 5), "ms")
    # one float64 read and one write per node, from array sizes
    out["fields.stencil_bytes_computed"] = (2 * 8 * g3.npoints, "B")

    vel = solver.assemble_velocity(state_c)
    pattern = rsf.zero_pattern(3)
    out["rsf.check_rsf_ms"] = (
        1e3 * _median_s(lambda: rsf.check_rsf(vel, pattern), 3), "ms")

    snap = [fields.ScalarField(g3, a)
            for a in solver.assemble_velocity_arrays(state_c)]
    path = workdir / "probe.rsff"
    mb = 3 * 8 * g3.npoints / 1e6
    write_s = _median_s(lambda: rsff.write_field(path, snap, dt), 3)
    read_s = _median_s(lambda: rsff.read_field(path), 3)
    path.unlink()
    out["rsff.write_ms"] = (1e3 * write_s, "ms")
    out["rsff.write_mb_per_s"] = (mb / write_s, "MB/s")
    out["rsff.read_ms"] = (1e3 * read_s, "ms")
    out["rsff.read_mb_per_s"] = (mb / read_s, "MB/s")

    rng = np.random.default_rng(seed)
    poly = trig.TrigPoly.band_limited(3, 2, rng)
    axes = [g3.axis_coords(a) for a in range(3)]
    out["trig.sample_ms"] = (1e3 * _median_s(lambda: poly.sample(axes), 3), "ms")


def frozen_probes(seed: int, sizes: dict, out: dict) -> None:
    n = sizes["frozen"]
    cfg = solver.SolverConfig(mode="kinematic_tg", dims=n, t_end=1.0,
                              snapshot_stride=2, seed=seed, kmax=1,
                              amplitude=0.3)
    result = solver.run_simulation(cfg, keep_history=True)
    history = verify.VelocityHistory.from_result(result)
    grid = history.grid
    plan = rsf.decomposition_plan(3)
    u0 = history.velocity_field(0)
    out["rsf.component_vorticities_ms"] = (
        1e3 * _median_s(lambda: rsf.component_vorticities(u0, plan), 5), "ms")
    w0 = rsf.component_vorticities(u0, plan)
    w1 = rsf.component_vorticities(history.velocity_field(-1), plan)

    rng = np.random.default_rng(seed)
    pts = grid.points() + rng.uniform(0.0, grid.spacing[0], size=grid.dims + (3,))
    values = history.snapshots[-1][2]
    out["fields.interp_setup_ms"] = (
        1e3 * _median_s(lambda: fields.Interpolator(grid, pts), 5), "ms")
    itp = fields.Interpolator(grid, pts)
    out["fields.interp_ms"] = (1e3 * _median_s(lambda: itp(values), 5), "ms")

    # a translation by a seeded off-node offset: identity Jacobian, and
    # every coefficient is gathered at non-node points
    offset = rng.uniform(0.0, 1.0, size=3) * np.asarray(grid.spacing)
    base = grid.points()
    images = fields.VectorField.from_arrays(
        grid, [base[..., a] + offset[a] for a in range(3)])
    ident = exterior.DiscreteMap.identity(grid)
    dmap = exterior.DiscreteMap(grid, images, ident.jacobian)
    fmap = verify.FlowMap(history.t0, history.t1, dmap)
    out["exterior.pullback_ms"] = (
        1e3 * _median_s(lambda: exterior.pullback(dmap, w1[1]), 5), "ms")
    out["verify.pullback_error_ms"] = (
        1e3 * _median_s(lambda: verify.pullback_error(w1[1], fmap, w0[1]), 5),
        "ms")

    # distinct times, so velocity_at's per-time cache never answers
    span = history.t1 - history.t0
    times = iter(history.t0 + span * (i + 0.37) / 11 for i in range(9))
    out["verify.velocity_at_ms"] = (
        1e3 * _median_s(lambda: history.velocity_at(next(times)), 9), "ms")


def identity_probes(seed: int, out: dict) -> None:
    rng = np.random.default_rng(seed)
    # both factors draw from one pool of wavevectors, so some pair sums
    # coincide and the product has to merge them, as in the battery
    pool = _harmonic_pool(TRIG_D, rng, TRIG_TERMS)
    a = _pool_trig(TRIG_D, rng, pool, TRIG_TERMS)
    b = _pool_trig(TRIG_D, rng, pool, TRIG_TERMS)
    batch = 50
    out["trig.mul_us"] = (
        1e6 * _median_s(lambda: [a * b for _ in range(batch)], 5) / batch, "us")
    out["trig.mul_merge_ratio"] = (
        len((a * b).terms) / (len(a.terms) * len(b.terms)), "ratio")

    u = [trig.TrigPoly.random(TRIG_D, 2, rng) for _ in range(TRIG_D)]
    omega1 = _random_form(TRIG_D, 1, rng)
    omega2 = _random_form(TRIG_D, 2, rng)
    out["exterior.lie_cartan_ms"] = (
        1e3 * _median_s(lambda: exterior.lie_derivative_cartan(u, omega2), 5),
        "ms")
    out["exterior.wedge_ms"] = (
        1e3 * _median_s(lambda: exterior.wedge(omega1, omega2), 5), "ms")


def run_probes(seed: int, size: str, workdir: Path) -> dict:
    """Every probe metric: name -> (value, unit)."""
    sizes = PROBE_SIZES[size]
    out: dict = {}
    probe_dir = workdir / "probes"
    probe_dir.mkdir()
    try:
        solver_probes(seed, sizes, out, probe_dir)
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    frozen_probes(seed, sizes, out)
    identity_probes(seed, out)
    return out
