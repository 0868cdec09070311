"""Verification harness: flow maps, pullback errors, residuals, order fits."""

import math

import numpy as np
import pytest

from rsflow.exterior import wedge
from rsflow.fields import Grid, Interpolator, VectorField, derivative
from rsflow.rsf import component_vorticities, decomposition_plan
from rsflow.solver import SolverConfig, run_simulation
from rsflow.trig import TrigPoly
from rsflow.verify import (VelocityHistory, advect_flowmap, fit_order,
                           frozen_in_errors, identity_suite, lemma1_check,
                           pullback_error, residual_pde)


def _constant_history(grid, u, times):
    comps = [np.full(grid.dims[:2], u[0]), np.full(grid.dims[:2], u[1]),
             np.full(grid.dims, u[2])]
    return VelocityHistory(grid, times, [comps] * len(times))


def _snapshot_shapes(h):
    return {tuple(np.shape(v) for v in s) for s in h.snapshots}


# ----------------------------------------------------------------------
# velocity histories
# ----------------------------------------------------------------------

def test_history_rejects_non_uniform_times():
    g = Grid.cube(3, 8)
    with pytest.raises(ValueError, match="uniformly spaced"):
        _constant_history(g, (1.0, 0.0, 0.0), [0.0, 0.1, 0.3, 0.4])


def test_history_rejects_too_few_snapshots():
    # cubic Lagrange in time needs 4 snapshots
    g = Grid.cube(3, 8)
    for times in ([0.0, 0.1], [0.0, 0.1, 0.2]):
        with pytest.raises(ValueError,
                           match=f"at least 4 snapshots, got {len(times)}"):
            _constant_history(g, (1.0, 0.0, 0.0), times)


def test_history_holds_rsf_snapshot_shapes():
    g = Grid.cube(3, 8)
    h = _constant_history(g, (0.3, -0.2, 0.1), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert _snapshot_shapes(h) == {((8, 8), (8, 8), (8, 8, 8))}


def test_history_rejects_non_finite_values_naming_time_and_node():
    g = Grid.cube(3, 8)
    clean = [np.zeros(g.dims[:2]), np.zeros(g.dims[:2]), np.zeros(g.dims)]
    bad = clean[:2] + [np.zeros(g.dims)]
    bad[2][3, 4, 5] = np.nan
    with pytest.raises(ValueError,
                       match=r"snapshot 2 \(t = 1\): u3 = nan at node \(3, 4, 5\)"):
        VelocityHistory(g, [0.0, 0.5, 1.0, 1.5], [clean, clean, bad, clean])


def test_history_from_rsff_keeps_steady_horizontal_flow(tmp_path):
    # the steady u1, u2 survive a file round trip bit for bit
    cfg = SolverConfig(mode="kinematic_tg", dims=(16, 16, 16), t_end=0.5,
                       amplitude=0.1, kmax=1, snapshot_stride=1)
    run_simulation(cfg, outdir=tmp_path, keep_history=False)
    h = VelocityHistory.from_rsff_dir(tmp_path)
    assert len(h.times) >= 3
    assert _snapshot_shapes(h) == {((16, 16), (16, 16), (16, 16, 16))}
    for c in (0, 1):
        assert all(np.array_equal(s[c], h.snapshots[0][c]) for s in h.snapshots)


def test_history_rejects_mixed_columnar_snapshots():
    # u1 and u2 are held once per column, so a 3D u1 is rejected: in one
    # snapshot of four, in all four, and as u1 = sin x3, which is not RSF
    g = Grid.cube(3, 8)
    flat = [np.zeros(g.dims[:2]), np.zeros(g.dims[:2]), np.zeros(g.dims)]
    full = [np.zeros(g.dims)] * 3
    shear = [np.sin(g.points()[..., 2]), np.zeros(g.dims[:2]), np.zeros(g.dims)]
    for snaps in ([flat, full, flat, flat], [full] * 4, [shear] * 4):
        with pytest.raises(ValueError,
                           match=r"u1 has shape \(8, 8, 8\), expected \(8, 8\)"):
            VelocityHistory(g, [0.0, 0.5, 1.0, 1.5], snaps)


# ----------------------------------------------------------------------
# flow maps
# ----------------------------------------------------------------------

def test_flowmap_constant_velocity_is_exact():
    g = Grid.cube(3, 16)
    u = (0.3, -0.2, 0.1)
    h = _constant_history(g, u, [0.0, 0.25, 0.5, 0.75, 1.0])
    fmap = advect_flowmap(h, 0.0, 1.0, substeps=4)
    pts = g.points()
    for c in range(3):
        np.testing.assert_allclose(fmap.map.images.components[c].values,
                                   pts[..., c] + u[c], atol=1e-13)
    np.testing.assert_allclose(fmap.map.jacobian,
                               np.broadcast_to(np.eye(3), g.dims + (3, 3)),
                               atol=1e-13)


def test_flowmap_evaluates_history_once_per_distinct_stage_time():
    g = Grid.cube(3, 8)
    h = _constant_history(g, (0.3, -0.2, 0.1), [0.0, 0.25, 0.5, 0.75, 1.0])
    times = []
    evaluate = h.velocity_at
    h.velocity_at = lambda t: times.append(t) or evaluate(t)
    advect_flowmap(h, 0.0, 1.0, substeps=3)
    assert len(times) == 2 * 3 + 1


def test_flowmap_volume_preserved_by_divergence_free_flow():
    cfg = SolverConfig(mode="kinematic_tg", dims=(32, 32, 32), t_end=0.5,
                       amplitude=0.1, kmax=1, snapshot_stride=1)
    h = VelocityHistory.from_result(run_simulation(cfg))
    fmap = advect_flowmap(h, 0.0, 0.5, substeps=2 * (len(h.times) - 1))
    det = fmap.map.jacobian_det()
    # horizontal TG is divergence-free but u3 self-advection is not
    assert np.max(np.abs(det - 1.0)) < 0.2
    assert np.min(det) > 0.5


@pytest.mark.parametrize("mode", ["kinematic_tg", "constrained"])
def test_flowmap_keeps_rsf_structural_zeros_exact(mode):
    # du1/dx3 = du2/dx3 = 0 on an RSF history (steady u_h in kinematic_tg,
    # unsteady in constrained), so dJ/dt = J . grad u never moves J[2, 0:2]
    cfg = SolverConfig(mode=mode, dims=(16, 16, 16), t_end=0.4,
                       amplitude=0.1, kmax=1, snapshot_stride=1)
    h = VelocityHistory.from_result(run_simulation(cfg))
    fmap = advect_flowmap(h, h.t0, h.t1, substeps=2 * (len(h.times) - 1))
    assert _snapshot_shapes(h) == {((16, 16), (16, 16), (16, 16, 16))}
    assert np.all(fmap.map.jacobian[..., 2, 0:2] == 0.0)
    # x_h and J_hh advance once per column: constant along axis 2, bit for bit
    for block in (fmap.map.images.components[0].values,
                  fmap.map.images.components[1].values,
                  fmap.map.jacobian[..., 0:2, 0:2]):
        assert np.array_equal(block, np.broadcast_to(block[:, :, :1],
                                                     block.shape))


def _unblocked_flowmap(h, t0, t1, substeps):
    """Reference flow map without the block structure: every particle
    carries all of x and J, advanced with one 12-row 3D gather per stage
    (row c is u_c, row 3 + 3k + c is du_c/dx_k; du_h/dx3 = 0)."""
    def stack(t):
        cols, full = h.velocity_at(t)
        out = np.zeros((12,) + h.grid.dims)
        out[[0, 1, 3, 4, 6, 7]] = cols[..., None]
        out[[2, 5, 8, 11]] = full
        return out

    def deriv(x, jac, s):
        v = Interpolator(h.grid, x)(s)
        return v[:3].T, jac @ v[3:].T.reshape(-1, 3, 3)

    x = h.grid.points().reshape(-1, 3)
    jac = np.broadcast_to(np.eye(3), (len(x), 3, 3))
    dt, t = (t1 - t0) / substeps, t0
    for _ in range(substeps):
        s0, s1, s2 = stack(t), stack(t + 0.5 * dt), stack(t + dt)
        dx1, dj1 = deriv(x, jac, s0)
        dx2, dj2 = deriv(x + 0.5 * dt * dx1, jac + 0.5 * dt * dj1, s1)
        dx3, dj3 = deriv(x + 0.5 * dt * dx2, jac + 0.5 * dt * dj2, s1)
        dx4, dj4 = deriv(x + dt * dx3, jac + dt * dj3, s2)
        x = x + (dt / 6.0) * (dx1 + 2 * dx2 + 2 * dx3 + dx4)
        jac = jac + (dt / 6.0) * (dj1 + 2 * dj2 + 2 * dj3 + dj4)
        t += dt
    return x.reshape(h.grid.dims + (3,)), jac.reshape(h.grid.dims + (3, 3))


def test_block_flowmap_matches_unblocked_reference():
    # only the summation order differs: one 2D gather per column instead
    # of the 3D gather of a field that is constant along x3
    cfg = SolverConfig(mode="constrained", dims=(16, 16, 16), t_end=0.4,
                       amplitude=0.2, kmax=1, snapshot_stride=1)
    h = VelocityHistory.from_result(run_simulation(cfg))
    substeps = 2 * (len(h.times) - 1)
    fmap = advect_flowmap(h, h.t0, h.t1, substeps)
    x, jac = _unblocked_flowmap(h, h.t0, h.t1, substeps)
    images = np.stack([c.values for c in fmap.map.images.components], -1)
    assert np.max(np.abs(images - x)) <= 1e-13
    assert np.max(np.abs(fmap.map.jacobian - jac)) <= 1e-13
    assert np.max(np.abs(images - h.grid.points())) > 1e-2  # particles moved


def test_flowmap_from_rsff_matches_from_result(tmp_path):
    cfg = SolverConfig(mode="constrained", dims=(16, 16, 16), t_end=0.4,
                       amplitude=0.1, kmax=1, snapshot_stride=1)
    result = run_simulation(cfg, outdir=tmp_path)
    maps = []
    for h in (VelocityHistory.from_result(result),
              VelocityHistory.from_rsff_dir(tmp_path)):
        assert _snapshot_shapes(h) == {((16, 16), (16, 16), (16, 16, 16))}
        maps.append(advect_flowmap(h, h.t0, h.t1,
                                   substeps=2 * (len(h.times) - 1)).map)
    a, b = maps
    assert np.array_equal(a.jacobian, b.jacobian)
    for ca, cb in zip(a.images.components, b.images.components):
        assert np.array_equal(ca.values, cb.values)


def test_flowmap_fold_is_loud_and_names_the_particle():
    # u1 = 5 sin x1 in one RK4 step of length 1 overshoots: det J < 0
    g = Grid.cube(3, 8)
    x1 = g.points()[:, :, 0, 0]
    comps = [5.0 * np.sin(x1), np.zeros(g.dims[:2]), np.zeros(g.dims)]
    h = VelocityHistory(g, [0.0, 0.5, 1.0, 1.5], [comps] * 4)
    with pytest.raises(RuntimeError,
                       match=r"flow map folded: det J = -\S+ at particle 192"):
        advect_flowmap(h, 0.0, 1.0, substeps=1)


def test_flowmap_names_the_particle_of_a_non_finite_det_j():
    # a NaN gradient entry reaches J but not the paths, so det J is NaN
    # while every particle position stays finite
    g = Grid.cube(3, 8)
    h = _constant_history(g, (0.3, -0.2, 0.1), [0.0, 0.5, 1.0, 1.5])
    evaluate = h.velocity_at

    def poisoned(t):
        cols, full = evaluate(t)
        full = full.copy()
        full[1, 0, 0, 0] = np.nan  # du3/dx1 at node 0
        return cols, full

    h.velocity_at = poisoned
    with pytest.raises(RuntimeError,
                       match=r"flow map folded: det J = nan at particle \d+"):
        advect_flowmap(h, 0.0, 1.0, substeps=1)


@pytest.mark.parametrize("stride", [0, -1, 3])
def test_flowmap_rejects_a_stride_that_does_not_divide_the_grid(stride):
    g = Grid.cube(3, 32)
    h = _constant_history(g, (1.0, 0.0, 0.0), [0.0, 0.5, 1.0, 1.5])
    with pytest.raises(ValueError, match=rf"stride {stride} must be >= 1 and "
                                         rf"divide every axis of the grid "
                                         rf"\(32, 32, 32\)"):
        advect_flowmap(h, 0.0, 1.0, substeps=1, stride=stride)


def test_flowmap_rejects_interval_outside_history():
    g = Grid.cube(3, 8)
    h = _constant_history(g, (1.0, 0.0, 0.0), [0.0, 0.5, 1.0, 1.5])
    with pytest.raises(ValueError, match="outside history"):
        advect_flowmap(h, 0.0, 2.0, substeps=4)


def test_flowmap_substep_self_convergence():
    cfg = SolverConfig(mode="kinematic_tg", dims=(32, 32, 32), t_end=0.25,
                       amplitude=0.1, kmax=1, snapshot_stride=1)
    h = VelocityHistory.from_result(run_simulation(cfg))
    coarse = advect_flowmap(h, 0.0, 0.25, substeps=4, stride=2)
    fine = advect_flowmap(h, 0.0, 0.25, substeps=16, stride=2)
    gap = max((a - b).max_abs() for a, b in
              zip(coarse.map.images.components, fine.map.images.components))
    assert gap < 1e-6  # RK4: refining dt barely moves the particles


# ----------------------------------------------------------------------
# pullback error
# ----------------------------------------------------------------------

def test_pullback_error_vanishes_for_trivial_interval():
    g = Grid.cube(3, 16)
    h = _constant_history(g, (0.0, 0.0, 0.0), [0.0, 0.5, 1.0, 1.5, 2.0])
    fmap = advect_flowmap(h, 0.0, 0.0, substeps=1)
    plan = decomposition_plan(3)
    rng = np.random.default_rng(0)
    arrays = [TrigPoly.random(3, 2, rng).sample([g.axis_coords(a)
                                                 for a in range(3)])
              for _ in range(3)]
    u = VectorField.from_arrays(g, arrays)
    omega = component_vorticities(u, plan)[0]
    err = pullback_error(omega, fmap, omega)
    assert err["linf"] == 0.0 and err["l2_normalized"] == 0.0


# ----------------------------------------------------------------------
# PDE residuals and operator linearity
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def short_kinematic_history():
    cfg = SolverConfig(mode="kinematic_tg", dims=(32, 32, 32), t_end=0.4,
                       amplitude=0.1, kmax=1, snapshot_stride=1)
    return VelocityHistory.from_result(run_simulation(cfg))


def test_velocity_at_stacks_velocity_and_gradient(short_kinematic_history):
    h = short_kinematic_history
    assert _snapshot_shapes(h) == {((32, 32), (32, 32), (32, 32, 32))}
    cols, full = h.velocity_at(0.5 * (h.times[1] + h.times[2]))
    assert cols.shape == (6,) + h.grid.dims[:2]
    assert full.shape == (4,) + h.grid.dims
    spacing = h.grid.spacing
    for k in range(2):
        for c in range(2):
            assert np.array_equal(cols[2 + 2 * k + c],
                                  derivative(cols[c], k, spacing[k]))
    for k in range(3):
        assert np.array_equal(full[1 + k], derivative(full[0], k, spacing[k]))


def test_frozen_in_errors_reports_flowmap_health(short_kinematic_history):
    h = short_kinematic_history
    health = frozen_in_errors(h, h)["flowmap"]
    assert health["particles"] == h.grid.npoints
    assert health["substeps"] == 2 * (len(h.times) - 1)
    det = advect_flowmap(h, h.t0, h.t1, health["substeps"]).map.jacobian_det()
    assert health["det_min"] == np.min(det) > 0
    assert health["det_max"] == np.max(det)


def test_residual_pde_linearity(short_kinematic_history):
    h = short_kinematic_history
    plan = decomposition_plan(3)
    series = [[], []]
    for i in range(len(h.times)):
        omegas = component_vorticities(h.velocity_field(i), plan)
        series[0].append(omegas[0])
        series[1].append(omegas[1])
    out = residual_pde(h, series)
    assert out["linearity_rel_discrepancy"] <= 1e-12
    assert len(out["components"]) == 2
    assert all(np.isfinite(v) for v in out["components"][0]["linf"])


def test_residual_pde_is_small_for_true_solution(short_kinematic_history):
    h = short_kinematic_history
    plan = decomposition_plan(3)
    series = [[component_vorticities(h.velocity_field(i), plan)[0]
               for i in range(len(h.times))]]
    out = residual_pde(h, series)
    # omega_h is exactly steady and Lie-invariant; only stencil error remains
    assert max(out["components"][0]["linf"]) <= 1e-3


# ----------------------------------------------------------------------
# closed-form identities
# ----------------------------------------------------------------------

def test_lemma1_positive_and_negative_controls():
    assert lemma1_check(5, 2, seed=0) <= 1e-13
    assert lemma1_check(5, 2, seed=0, violate=True) >= 1e-3


def test_lemma1_argument_validation():
    with pytest.raises(ValueError, match=r"3 <= d <= 12 .*got d = 3, k = 3"):
        lemma1_check(3, 3, seed=0)


def test_identity_suite_small_slice():
    worst = identity_suite(dims=[3, 4], seeds=3)
    assert set(worst) == {"dd_zero", "cartan_vs_components", "d_commutes_lie",
                          "leibniz", "lemma1"}
    assert all(v <= 1e-12 for v in worst.values())


def test_wedge_of_3d_components_is_trivial():
    # in d = 3 the wedge of two component 2-forms exceeds the top degree
    g = Grid.cube(3, 8)
    rng = np.random.default_rng(1)
    u = VectorField.from_arrays(
        g, [TrigPoly.random(3, 1, rng).sample([g.axis_coords(a)
                                               for a in range(3)])
            for _ in range(3)])
    omegas = component_vorticities(u, decomposition_plan(3))
    assert not wedge(omegas[0], omegas[1]).coeffs


# ----------------------------------------------------------------------
# order fitting
# ----------------------------------------------------------------------

def test_fit_order_recovers_exact_slope():
    ns = [32, 64, 128]
    errors = [1e-2 * (32.0 / n) ** 4 for n in ns]
    assert fit_order(ns, errors) == pytest.approx(4.0, abs=1e-12)


def test_fit_order_first_order_data():
    assert fit_order([16, 32, 64], [0.2, 0.1, 0.05]) == pytest.approx(1.0)


def test_fit_order_handles_floor():
    assert fit_order([16, 32], [1e-3, 0.0]) == math.inf


def test_fit_order_needs_two_points():
    with pytest.raises(ValueError):
        fit_order([16], [1e-3])
