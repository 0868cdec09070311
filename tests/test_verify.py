"""Verification harness: flow maps, pullback errors, residuals, order fits."""

import math
import struct
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rsflow import fields as fields_module
from rsflow import rsff
from rsflow import verify as verify_module
from rsflow.exterior import jacobian_minor, wedge
from rsflow.fields import (Grid, Interpolator, VectorField, derivative,
                           lagrange4_taps, lagrange4_weights)
from rsflow.rsf import component_vorticities, decomposition_plan
from rsflow.solver import SolverConfig, rk4, run_simulation
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


@pytest.mark.parametrize("times, bad", [([0.0, 0.5, 1.0, np.inf], r"inf at node \(3,\)"),
                                        ([0.0, np.nan, 1.0, 1.5], r"nan at node \(1,\)")],
                         ids=["inf", "nan"])
def test_history_rejects_non_finite_times(times, bad):
    # inf > inf is false, so an infinite last time passed the spacing checks
    with pytest.raises(ValueError, match="snapshot time = " + bad):
        _constant_history(Grid.cube(3, 8), (1.0, 0.0, 0.0), times)


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


def _owner(v):
    while isinstance(v.base, np.ndarray):
        v = v.base
    return v


def test_history_from_rsff_snapshots_own_their_data(tmp_path):
    # a snapshot that held a 3D u1 or u2, or one buffer of a whole file,
    # would keep it alive: full components as stored (u1 and u2 copied
    # out of their layer 0), then u1 and u2 stored once per column, which
    # are their stored 2D arrays
    g = Grid.cube(3, 8)
    u = VectorField.from_arrays(g, [np.full(g.dims, 0.1 * c) for c in range(3)])
    for i in range(4):
        rsff.write_field(tmp_path / f"snap_{i:04d}.rsff", u, 0.5 * i)
    h = VelocityHistory.from_rsff_dir(tmp_path)
    assert all(v.flags.owndata for snap in h.snapshots for v in snap)
    columns = [np.broadcast_to(np.full(g.dims[:2], 0.1 * c)[:, :, None], g.dims)
               for c in range(2)]
    u = VectorField.from_arrays(g, columns + [np.full(g.dims, 0.2)])
    for i in range(4):
        rsff.write_field(tmp_path / f"snap_{i:04d}.rsff", u, 0.5 * i)
    h = VelocityHistory.from_rsff_dir(tmp_path)
    assert all(_owner(v).nbytes == v.nbytes for snap in h.snapshots for v in snap)
    assert all(snap[2].flags.owndata for snap in h.snapshots)


def test_history_from_rsff_scans_each_value_once(tmp_path, monkeypatch):
    # read_field scans each stored value; the history does not scan again
    g = Grid.cube(3, 8)
    columns = [np.broadcast_to(np.zeros(g.dims[:2])[:, :, None], g.dims)] * 2
    u = VectorField.from_arrays(g, columns + [np.zeros(g.dims)])
    for i in range(4):
        rsff.write_field(tmp_path / f"snap_{i:04d}.rsff", u, 0.5 * i)
    calls = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a: calls.append(a.shape) or isfinite(a))
    VelocityHistory.from_rsff_dir(tmp_path)
    assert sorted(calls) == sorted([(8, 8, 1), (8, 8, 1), (8, 8, 8)] * 4 + [(4,)])


def test_history_from_v1_and_v2_files_is_the_history_of_the_run(tmp_path):
    # the same run read back from the version 2 files it wrote and from
    # version 1 copies of them: the flow map and both errors of each are
    # the ones from the run's own arrays
    cfg = SolverConfig(mode="constrained", dims=(16, 16, 16), t_end=0.4,
                       amplitude=0.1, kmax=1, snapshot_stride=1)
    result = run_simulation(cfg, outdir=tmp_path / "v2")
    (tmp_path / "v1").mkdir()
    g = result.grid3
    for i, (t, comps) in enumerate(zip(result.times, result.snapshots)):
        with open(tmp_path / "v1" / f"snap_{i:04d}.rsff", "wb") as fh:
            fh.write(rsff.MAGIC + struct.pack("<6I4d", 1, 3, 3, *g.dims, *g.length, t))
            for a in comps:
                np.ascontiguousarray(a, dtype="<f8").tofile(fh)
    errors = [frozen_in_errors(h, h) for h in (
        VelocityHistory.from_result(result),
        VelocityHistory.from_rsff_dir(tmp_path / "v2"),
        VelocityHistory.from_rsff_dir(tmp_path / "v1"))]
    assert repr(errors[1]) == repr(errors[0]) and repr(errors[2]) == repr(errors[0])


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
    det = fmap.map.det
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


def test_strided_flowmap_on_a_non_cubic_grid_is_the_unstrided_one_subsampled():
    # each particle advances by elementwise arithmetic on its own column and
    # layer, so dropping particles changes no bit of the others; with
    # n2 = 24, 12 layers and 64 columns, a vertical pass that confuses the
    # line length, the layer count or the column count reads wrong lines
    cfg = SolverConfig(mode="constrained", dims=(16, 16, 24), t_end=0.4,
                       amplitude=0.2, kmax=1, snapshot_stride=1)
    h = VelocityHistory.from_result(run_simulation(cfg))
    substeps = 2 * (len(h.times) - 1)
    full = advect_flowmap(h, h.t0, h.t1, substeps).map
    half = advect_flowmap(h, h.t0, h.t1, substeps, stride=2).map
    assert half.grid.dims == (8, 8, 12)
    assert np.array_equal(half.jacobian, full.jacobian[::2, ::2, ::2])
    for a, b in zip(half.images.components, full.images.components):
        assert np.array_equal(a.values, b.values[::2, ::2, ::2])
    assert np.max(np.abs(full.jacobian[..., 0:2, 2])) > 1e-3  # J[:2, 2] moved


# ----------------------------------------------------------------------
# flow maps in column chunks on the pool
# ----------------------------------------------------------------------

# 2240 columns of 16-node x3-lines: the stage's chunks of 1024 columns
# (4 rows x 16 nodes each) are 1024, 1024 and a short 192
CHUNK_DIMS = (40, 56, 16)


@pytest.fixture
def three_slab_threads(monkeypatch):
    # the pool path with three threads, whatever the CPU count
    with ThreadPoolExecutor(3) as pool:
        monkeypatch.setattr(fields_module, "_slab_pool", lambda: pool)
        yield


def _smooth_history(dims, times, seed=0):
    """An unsteady RSF history of a few smooth modes with random phases
    (no solver run): u1, u2 on the plane, u3 on all three axes."""
    g = Grid(dims)
    x1, x2, x3 = np.meshgrid(*[g.axis_coords(a) for a in range(3)],
                             indexing="ij")
    p = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size=4)
    return VelocityHistory(g, times, [
        [0.3 * np.sin(x2[..., 0] + p[0] + t), 0.3 * np.cos(x1[..., 0] + p[1] - t),
         0.2 * np.sin(x1 + p[2] + t) * np.cos(x2 + 2 * x3 + p[3])]
        for t in times])


def _whole_plane_flowmap(h, t0, t1, substeps):
    """The block flow map with each stage's deriv over the whole plane
    at once: one line gather of every column, then the vertical taps of
    every particle.  Returns images, J and det J."""
    plane = Grid(h.grid.dims[:2], h.grid.length[:2])
    n2, h2 = h.grid.dims[2], h.grid.spacing[2]
    pts = h.grid.points().reshape(-1, n2, 3)
    ncol = len(pts)
    line_start = np.arange(ncol)[:, None] * n2
    y = [pts[:, 0, :2].T, np.broadcast_to(np.eye(2)[..., None], (2, 2, ncol)),
         pts[..., 2], np.broadcast_to(np.eye(3)[:, 2, None, None],
                                      (3,) + pts.shape[:2])]

    def deriv(t, state):
        cols, full = h.velocity_at(t)
        xh, jh, x3, jv = state
        itp = Interpolator(plane, xh.T)
        vh = itp(cols)
        lines = np.empty((len(full), ncol, n2))
        itp.gather(full.reshape(len(full), ncol, n2), lines,
                   np.empty(lines.shape))
        lines = lines.reshape(len(full), -1)
        idx, w = lagrange4_taps(x3, h2, n2, axis=2)
        v = sum(lines.take(line_start + i, axis=1) * wi for i, wi in zip(idx, w))
        gh = vh[2:].reshape(2, 2, ncol)
        g = v[1:]
        djv = jv * g[2]
        djv[:2] += jh[:, 0, :, None] * g[0] + jh[:, 1, :, None] * g[1]
        return [vh[:2].copy(), jh[:, :1] * gh[0] + jh[:, 1:] * gh[1],
                v[0].copy(), djv]

    dt, t = (t1 - t0) / substeps, t0
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
    jac = jac.reshape(h.grid.dims + (3, 3))
    return (x.reshape(h.grid.dims + (3,)), jac,
            jacobian_minor(jac, range(3), range(3)))


def test_chunk_grid_is_cut_into_three_uneven_chunks():
    ncol, plane = CHUNK_DIMS[0] * CHUNK_DIMS[1], 4 * CHUNK_DIMS[2]
    height = fields_module._SLAB_SIZE // plane
    assert ncol * plane >= fields_module._SLAB_MIN_SIZE
    assert -(-ncol // height) >= 3 and ncol % height != 0


def test_chunked_flowmap_is_bit_identical_to_whole_plane_stages(
        three_slab_threads):
    h = _smooth_history(CHUNK_DIMS, [0.0, 0.1, 0.2, 0.3, 0.4])
    fmap = advect_flowmap(h, 0.0, 0.4, substeps=3)
    x, jac, det = _whole_plane_flowmap(h, 0.0, 0.4, 3)
    images = np.stack([c.values for c in fmap.map.images.components], -1)
    assert np.array_equal(images, x)
    assert np.array_equal(fmap.map.jacobian, jac)
    assert np.array_equal(fmap.map.det, det)
    assert np.max(np.abs(jac[..., :2, 2])) > 1e-3  # J[:2, 2] moved


def test_chunked_flowmap_names_the_global_particle_of_a_bad_x3(
        three_slab_threads):
    # a NaN u3 at node (38, 40, 5) spreads to columns 2054 and on, all in
    # the last chunk; their x3 turn NaN at the second stage, and the
    # vertical taps of that chunk name the particle as the whole plane does
    h = _smooth_history(CHUNK_DIMS, [0.0, 0.1, 0.2, 0.3])
    evaluate = h.velocity_at

    def poisoned(t):
        cols, full = evaluate(t)
        full = full.copy()
        full[0, 38, 40, 5] = np.nan
        return cols, full

    h.velocity_at = poisoned
    with pytest.raises(ValueError, match=r"on axis 2: not finite") as whole:
        _whole_plane_flowmap(h, 0.0, 0.3, 1)
    with pytest.raises(ValueError, match=r"on axis 2: not finite") as chunked:
        advect_flowmap(h, 0.0, 0.3, substeps=1)
    assert str(chunked.value) == str(whole.value)
    particle = int(str(chunked.value).split()[1])
    assert particle >= 2048 * CHUNK_DIMS[2]  # past the first two chunks


def test_chunked_flowmap_calls_traced_layers_on_the_calling_thread(
        three_slab_threads, monkeypatch):
    # the benchmark's tracer keeps one span stack for all threads, so the
    # functions it wraps must not run in a pool job
    seen = {}

    def record(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            seen.setdefault(name, set()).add(threading.current_thread())
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("__init__", "__call__", "gather"):
        record(Interpolator, name)
    record(VelocityHistory, "velocity_at")
    h = _smooth_history(CHUNK_DIMS, [0.0, 0.1, 0.2, 0.3])
    advect_flowmap(h, 0.0, 0.3, substeps=1)
    me = threading.current_thread()
    for name in ("__init__", "__call__", "velocity_at"):
        assert seen[name] == {me}, name
    assert seen["gather"] - {me}  # the chunks ran on the pool


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


def test_flowmap_rejects_a_stride_that_leaves_too_few_particles():
    g = Grid.cube(3, 8)
    h = _constant_history(g, (1.0, 0.0, 0.0), [0.0, 0.5, 1.0, 1.5])
    with pytest.raises(ValueError, match=r"stride 2 leaves \(4, 4, 4\) "
                                         r"particles on the grid \(8, 8, 8\); "
                                         r"every axis needs at least "
                                         r"MIN_DIM = 8"):
        advect_flowmap(h, 0.0, 1.0, substeps=1, stride=2)


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


def test_velocity_at_stacks_in_slabs_bit_for_bit(three_slab_threads):
    # random periodic snapshots on a grid that the u3 stack cuts into
    # x1-slabs of 32, 32 and 8 planes, the two ends with wrapped halos
    g = Grid((72, 64, 32))
    rng = np.random.default_rng(5)
    times = [0.1 * m for m in range(6)]
    h = VelocityHistory(g, times, [
        [rng.standard_normal(g.dims[:2]), rng.standard_normal(g.dims[:2]),
         rng.standard_normal(g.dims)] for _ in times])
    t = 0.23  # between times[2] and times[3]: snapshots 1..4
    cols, full = h.velocity_at(t)
    w = lagrange4_weights((t - times[2]) / h.dt)
    for c, got in ((0, cols[0]), (1, cols[1]), (2, full[0])):
        acc = w[0] * h.snapshots[1][c]
        for m in range(1, 4):
            acc = acc + w[m] * h.snapshots[1 + m][c]
        assert np.array_equal(got, acc)
    for k in range(3):
        assert np.array_equal(full[1 + k], derivative(full[0], k, g.spacing[k]))
    for k in range(2):
        for c in range(2):
            assert np.array_equal(cols[2 + 2 * k + c],
                                  derivative(cols[c], k, g.spacing[k]))


def test_frozen_in_errors_reports_flowmap_health(short_kinematic_history):
    h = short_kinematic_history
    health = frozen_in_errors(h, h)["flowmap"]
    assert health["particles"] == h.grid.npoints
    assert health["substeps"] == 2 * (len(h.times) - 1)
    det = advect_flowmap(h, h.t0, h.t1, health["substeps"]).map.det
    assert health["det_min"] == np.min(det) > 0
    assert health["det_max"] == np.max(det)


@pytest.mark.parametrize("mode", ["constrained", "free"])
def test_frozen_in_law_on_the_solvers_own_flows(mode):
    # kinematic_history's config in a barotropic mode: a constrained run
    # is an RSF Euler flow, so both component vorticities are frozen in
    # at the stencil's order (3.72 and 3.76 measured); a free run feeds
    # the horizontal momentum only the vertical mean of grad_h Pi, which
    # leaves omega_h frozen in (3.76) but not omega_rest (0.885, 0.886)
    errors = {"omega_h": [], "omega_rest": []}
    for n in (16, 32):
        cfg = SolverConfig(mode=mode, dims=(n, n, n), t_end=1.0,
                           snapshot_stride=2, seed=11, kmax=1, amplitude=0.3)
        h = VelocityHistory.from_result(run_simulation(cfg))
        case = frozen_in_errors(h, h)
        for name, errs in errors.items():
            errs.append(case[name]["l2_normalized"])
    assert fit_order([16, 32], errors["omega_h"]) >= 3.5
    if mode == "constrained":
        assert fit_order([16, 32], errors["omega_rest"]) >= 3.5
    else:
        assert min(errors["omega_rest"]) >= 0.1


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


def test_identity_suite_computes_each_lie_derivative_once(monkeypatch):
    # per (d, seed): L w1, L w2, L dw1 and L (w1 ^ w2) in the battery and two
    # in lemma1_check; d w1, dd w1, d w2, dd w2 and d L w1
    calls = {"lie_derivative_cartan": 0, "exterior_derivative": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(verify_module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(verify_module, name, counted)
    identity_suite(dims=[4], seeds=1)
    assert calls == {"lie_derivative_cartan": 6, "exterior_derivative": 5}


def test_identity_suite_rejects_no_dimensions():
    # no d checks no identity; five zero maxima would read as a pass
    with pytest.raises(ValueError, match="^identity suite needs at least one d$"):
        identity_suite(dims=[], seeds=1)


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
