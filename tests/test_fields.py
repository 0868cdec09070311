"""Grids, finite differences, interpolation, and closed-form test fields."""

import multiprocessing
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rsflow import fields as fields_module
from rsflow.fields import (HALO, Grid, Interpolator, ScalarField, VectorField,
                           check_finite, derivative, divergence,
                           gradient_tensor, interpolate, lagrange4_taps,
                           lagrange4_weights, partial_derivative, restrict,
                           taylor_green_2d, with_halo)
from rsflow.trig import TrigPoly


def _sample(poly, grid):
    return ScalarField(grid, poly.sample([grid.axis_coords(a)
                                          for a in range(grid.d)]))


# ----------------------------------------------------------------------
# Grid
# ----------------------------------------------------------------------

def test_grid_defaults_to_2pi_box():
    g = Grid((16, 32))
    assert g.length == (2 * np.pi, 2 * np.pi)
    assert g.spacing[0] == pytest.approx(2 * np.pi / 16)
    assert g.npoints == 512


def test_grid_rejects_tiny_dims():
    with pytest.raises(ValueError):
        Grid((4, 16))


def test_grid_rejects_non_integer_dims():
    with pytest.raises(ValueError, match="dims must be integers"):
        Grid((8.5, 16))


@pytest.mark.parametrize("length", [0.0, -1.0, np.inf, np.nan])
def test_grid_rejects_bad_lengths(length):
    with pytest.raises(ValueError, match="positive and finite"):
        Grid((16, 16), (6.0, length))


def test_grid_cube_and_points_shape():
    g = Grid.cube(3, 8)
    assert g.dims == (8, 8, 8)
    assert g.points().shape == (8, 8, 8, 3)


def test_grid_scalar_length_broadcast():
    g = Grid((8, 8), (1.0,))
    assert g.length == (1.0, 1.0)


# ----------------------------------------------------------------------
# finite differences
# ----------------------------------------------------------------------

def test_derivative_fourth_order_convergence():
    f = TrigPoly.sin(1, (3,))
    exact = f.diff(0)
    errs = []
    for n in (32, 64):
        g = Grid((n,))
        err = (partial_derivative(_sample(f, g), 0) - _sample(exact, g)).max_abs()
        errs.append(err)
    ratio = errs[0] / errs[1]
    assert 14.0 < ratio < 18.0  # 2^4 = 16 for a 4th-order stencil


@pytest.mark.parametrize("stencil", [derivative])
def test_stencil_of_axis_constant_array_is_exactly_zero(stencil):
    rng = np.random.default_rng(3)
    plane = rng.normal(size=(12, 10))
    full = np.repeat(plane[:, :, None], 8, axis=2)
    view = np.broadcast_to(plane[:, :, None], (12, 10, 8))
    for arr in (full, view):
        assert np.all(stencil(arr, 2, 0.37) == 0.0)


def _rolled_derivative(values, axis, h):
    s = lambda k: np.roll(values, -k, axis)  # noqa: E731
    return (8.0 * (s(1) - s(-1)) - (s(2) - s(-2))) / (12.0 * h)


@pytest.mark.parametrize("stencil, rolled", [(derivative, _rolled_derivative)])
@pytest.mark.parametrize("shape", [(8, 8), (9, 13), (8, 11, 9), (96, 90, 64)])
def test_stencil_is_bit_identical_to_rolled_formula(stencil, rolled, shape,
                                                    monkeypatch):
    rng = np.random.default_rng(7)
    a = rng.normal(size=shape)

    def check():
        for arr in (a, a.T, np.broadcast_to(a[:1], shape)):
            for axis in range(arr.ndim):
                assert np.array_equal(stencil(arr, axis, 0.37),
                                      rolled(arr, axis, 0.37)), (arr.shape, axis)

    check()
    if a.size >= fields_module._SLAB_MIN_SIZE:
        # the slab path once more, on three threads whatever the CPU
        # count of the test machine; the last slab is a short one
        with ThreadPoolExecutor(3) as pool:
            monkeypatch.setattr(fields_module, "_slab_pool", lambda: pool)
            check()


def _three_slice_pair(values, k):
    """The stencil's pair difference along the last axis as three slices:
    the interior and the two wrapped edges."""
    n = values.shape[-1]
    out = np.empty(values.shape)
    np.subtract(values[..., 2 * k:], values[..., :n - 2 * k],
                out=out[..., k:n - k])
    np.subtract(values[..., k:2 * k], values[..., n - k:], out=out[..., :k])
    np.subtract(values[..., :k], values[..., n - 2 * k:n - k],
                out=out[..., n - k:])
    return out


def _three_slice_derivative(values, h):
    out = _three_slice_pair(values, 1)
    out *= 8.0
    out -= _three_slice_pair(values, 2)
    out /= 12.0 * h
    return out


def _last_axis_cases():
    rng = np.random.default_rng(11)
    big = rng.normal(size=(40, 60, 61))  # cut into slabs on the pool
    nan = rng.normal(size=(6, 5, 9))
    nan[1, 2, 0] = nan[1, 3, 8] = nan[4, 0, 4] = np.nan  # line ends, middle
    return {
        "1d": rng.normal(size=9), "1d n=4": rng.normal(size=4),
        "2d": rng.normal(size=(7, 11)), "2d n=4": rng.normal(size=(5, 4)),
        "3d": rng.normal(size=(6, 5, 9)), "3d n=4": rng.normal(size=(3, 5, 4)),
        "3d pool": big, "slab view": big[7:12],
        "strided view": big[:, :, 3:58],
        "broadcast view": np.broadcast_to(rng.normal(size=13), (6, 5, 13)),
        "nan": nan,
    }


@pytest.mark.parametrize("stencil, reference",
                         [(derivative, _three_slice_derivative)], ids=["first"])
@pytest.mark.parametrize("case", list(_last_axis_cases()))
def test_last_axis_pass_is_the_three_slice_stencil(stencil, reference, case,
                                                   monkeypatch):
    # the contiguous pass over all lines writes the edge nodes from the
    # neighbouring line first; they must end up as the wrapped slices give
    values = _last_axis_cases()[case]
    expected = reference(values, 0.37)
    with ThreadPoolExecutor(3) as pool:
        monkeypatch.setattr(fields_module, "_slab_pool", lambda: pool)
        got = stencil(values, -1, 0.37)
    assert np.array_equal(got, expected, equal_nan=True)
    if case == "nan":
        assert np.isnan(got).any()


def test_pool_threads_keep_no_reference_to_a_finished_job(monkeypatch):
    # a pool thread may hold its work item until after the caller resumed;
    # whatever the items keep, the job's arrays must go when the caller
    # drops them, not when a pool thread next takes work
    kept = []
    with ThreadPoolExecutor(3) as pool:
        class Retaining:
            def submit(self, fn, *args):
                kept.append(args)
                return pool.submit(fn, *args)
        monkeypatch.setattr(fields_module, "_slab_pool", Retaining)
        values = np.ones((64, 32, 64))
        alive = weakref.ref(values)
        sums = fields_module.map_slabs(_summing(values), 64, 32 * 64)
        del values
    assert len(kept) == 2 and sum(sums) == 64 * 32 * 64
    assert alive() is None


def test_the_caller_frees_the_futures_of_its_last_pool_call(monkeypatch):
    # the futures of one call stay with the calling thread until its next
    # call, so that it, not a pool thread, frees them
    submitted = []
    with ThreadPoolExecutor(3) as pool:
        class Recording:
            def submit(self, fn, *args):
                future = pool.submit(fn, *args)
                submitted.append(weakref.ref(future))
                return future
        monkeypatch.setattr(fields_module, "_slab_pool", Recording)
        job = _summing(np.ones((64, 32, 64)))
        fields_module.map_slabs(job, 64, 32 * 64)
        first = list(submitted)
        assert len(first) == 2 and all(f() is not None for f in first)
        fields_module.map_slabs(job, 64, 32 * 64)
    # the pool has shut down: no pool thread holds a work item any more
    assert all(f() is None for f in first)
    assert all(f() is not None for f in submitted[2:])


def _summing(values):
    def job(a, b):
        return float(values[a:b].sum())
    return job


def _slab_derivative_in_child(values, expected):
    sys.exit(0 if np.array_equal(derivative(values, 0, 0.37), expected) else 1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
def test_slab_stencil_runs_in_a_forked_child():
    # the parent's pool exists before the fork; its threads do not exist
    # in the child, which must not wait for them
    a = np.random.default_rng(8).normal(size=(96, 90, 64))
    expected = derivative(a, 0, 0.37)
    child = multiprocessing.get_context("fork").Process(
        target=_slab_derivative_in_child, args=(a, expected))
    child.start()
    child.join(timeout=60)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join()
    assert not alive and child.exitcode == 0


# slabs (a, b) of 12 planes; (0, 1), (0, 3) and (10, 12) wrap their halo.
# ids are "a-b", prefixed by "derivative-<axis>" but for axis 0
@pytest.mark.parametrize("axis, a, b", [
    pytest.param(axis, a, b,
                 id=f"{a}-{b}" if axis == 0 else f"derivative-{axis}-{a}-{b}")
    for axis in range(3)
    for a, b in ((0, 1), (0, 3), (5, 9), (10, 12), (0, 12))])
def test_derivative_with_halo_is_the_periodic_one_on_its_planes(axis, a, b):
    v = np.random.default_rng(9).normal(size=(12, 9, 8))
    planes, halo = with_halo(v, a, b)
    assert halo == (0 if (a, b) == (0, 12) else HALO)
    got = derivative(planes, axis, 0.37, halo)
    assert np.array_equal(got, derivative(v, axis, 0.37)[a:b])


def test_with_halo_copies_only_the_planes_it_returns():
    # a wrapped slab of a broadcast view, as check_rsf's u1 and u2 are,
    # must not copy the whole array first (ndarray.take does: 2 MB here)
    u = np.random.default_rng(3).normal(size=(64, 64))
    values = np.broadcast_to(u[:, :, None], (64, 64, 64))
    tracemalloc.start()
    try:
        planes, halo = with_halo(values, 0, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert halo == HALO
    assert np.array_equal(planes, np.roll(values, HALO, axis=0)[:4 + 2 * HALO])
    assert peak < 2 * planes.nbytes


def test_stencil_rejects_axis_shorter_than_its_reach():
    with pytest.raises(ValueError, match="at least 4 points along axis 1"):
        derivative(np.zeros((8, 3)), 1, 0.1)
    with pytest.raises(ValueError, match="halo 1 is shorter"):
        derivative(np.zeros((10, 8)), 0, 0.1, halo=1)


def test_divergence_equals_gradient_trace():
    g = Grid.cube(3, 24)
    rng = np.random.default_rng(0)
    u = VectorField(g, tuple(_sample(TrigPoly.random(3, 2, rng), g)
                             for _ in range(3)))
    div = divergence(u)
    trace = np.trace(gradient_tensor(u), axis1=-2, axis2=-1)
    assert np.max(np.abs(div.values - trace)) <= 1e-12


def test_gradient_tensor_index_convention():
    # entry (r, c) must be du_c / dx_r
    g = Grid.cube(2, 32)
    u = VectorField(g, (_sample(TrigPoly.constant(2, 0.0), g),
                        _sample(TrigPoly.sin(2, (1, 0)), g)))
    grad = gradient_tensor(u)
    assert grad.shape == (32, 32, 2, 2)
    expect = _sample(TrigPoly.cos(2, (1, 0)), g).values
    assert np.max(np.abs(grad[..., 0, 1] - expect)) <= 1e-3
    assert np.max(np.abs(grad[..., 1, 1])) <= 1e-12  # u2 has no x2 dependence


def test_scalarfield_rejects_nan():
    g = Grid((8,))
    bad = np.ones(8)
    bad[3] = np.nan
    with pytest.raises(ValueError, match=r"^field = nan at node \(3,\)$"):
        ScalarField(g, bad)


@pytest.mark.parametrize("axis, node", [(0, (0, 2, 3)), (1, (2, 0, 3)),
                                        (2, (2, 3, 0))])
def test_check_finite_names_the_same_node_in_a_broadcast_view(axis, node):
    u = np.ones((6, 5))
    u[4, 1] = np.inf
    u[2, 3] = np.nan
    shape = u.shape[:axis] + (4,) + u.shape[axis:]
    view = np.broadcast_to(np.expand_dims(u, axis), shape)
    messages = []
    for values in (view, np.array(view)):
        with pytest.raises(ValueError) as info:
            check_finite("snap", [np.ones(shape), values])
        messages.append(str(info.value))
    assert messages == [f"snap: u2 = nan at node {node}"] * 2


def test_check_finite_scans_a_broadcast_view_in_its_stored_values():
    # a 2D u1 broadcast along x3, as every simulate snapshot passes it
    u = np.random.default_rng(4).normal(size=(64, 64))
    values = np.broadcast_to(u[:, :, None], (64, 64, 256))
    tracemalloc.start()
    try:
        check_finite("", [values])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * u.nbytes


# ----------------------------------------------------------------------
# interpolation
# ----------------------------------------------------------------------

def test_interpolation_is_exact_on_nodes():
    g = Grid.cube(2, 16)
    rng = np.random.default_rng(4)
    f = _sample(TrigPoly.random(2, 2, rng), g)
    pts = g.points().reshape(-1, 2)
    vals = Interpolator(g, pts)(f.values).reshape(g.dims)
    assert np.array_equal(vals, f.values)  # bit-exact at nodes


def test_interpolating_a_stack_equals_one_call_per_field():
    g = Grid((8, 10, 12))  # unequal axes, so a wrong stride shows
    rng = np.random.default_rng(6)
    fields = [_sample(TrigPoly.random(3, 2, rng), g).values for _ in range(2)]
    fields.append(np.broadcast_to(fields[0][..., :1], g.dims))
    stack = np.stack(fields)
    itp = Interpolator(g, rng.uniform(-1.0, 7.0, size=(5, 7, 3)))
    got = itp(stack)
    assert got.shape == (3, 5, 7)
    for f, row in zip(fields, got):
        assert np.array_equal(row, itp(f))
    assert np.array_equal(itp(stack.reshape((3, 1) + g.dims))[:, 0], got)
    assert np.array_equal(Interpolator(g, g.points())(stack), stack)


def _column_gather(grid, stack, xh, x3):
    """The flow map's column-structured 3D gather: whole x3-lines at the
    columns ``xh``, then 4 taps along x3 at ``x3`` (column, layer)."""
    plane = Grid(grid.dims[:2], grid.length[:2])
    rows = stack.reshape(len(stack), plane.npoints, grid.dims[2])
    lines = np.empty((len(stack), len(xh), grid.dims[2]))
    Interpolator(plane, xh).gather(rows, lines, np.empty(lines.shape))
    idx, w = lagrange4_taps(x3, grid.spacing[2], grid.dims[2], axis=2)
    start = np.arange(len(xh))[:, None] * grid.dims[2]
    flat = lines.reshape(len(stack), -1)
    return sum(flat.take(start + i, axis=1) * wi for i, wi in zip(idx, w))


def test_line_axes_then_vertical_taps_equal_the_3d_gather():
    g = Grid((16, 12, 20))  # unequal axes, so a mixed-up n2 or stride shows
    rng = np.random.default_rng(8)
    stack = np.stack([_sample(TrigPoly.random(3, 2, rng), g).values
                      for _ in range(4)])
    xh = rng.uniform(-1.0, 7.0, size=(9, 2))
    x3 = rng.uniform(-1.0, 7.0, size=(9, 5))
    got = _column_gather(g, stack, xh, x3)
    pts = np.concatenate([np.broadcast_to(xh[:, None], (9, 5, 2)),
                          x3[..., None]], axis=-1)
    want = Interpolator(g, pts)(stack)
    assert got.shape == want.shape == (4, 9, 5)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # on nodes both passes have weights (0, 1, 0, 0): bit-exact
    nodes = g.points()
    on = _column_gather(g, stack, nodes[:, :, 0, :2].reshape(-1, 2),
                        nodes[..., 2].reshape(-1, g.dims[2]))
    assert np.array_equal(on, stack.reshape(on.shape))


def test_interpolator_line_axes_carry_whole_lines():
    g = Grid((8, 10))
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((3,) + g.dims + (4, 5))
    itp = Interpolator(g, rng.uniform(-1.0, 7.0, size=(6, 2)))
    got = np.empty((3, 6, 20))
    itp.gather(stack.reshape(3, g.npoints, 20), got, np.empty(got.shape))
    got = got.reshape(3, 6, 4, 5)
    for i, j in np.ndindex(4, 5):
        assert np.array_equal(got[..., i, j], itp(stack[..., i, j]))


def test_gather_over_ranges_of_points_is_the_whole_call():
    g = Grid((8, 10))
    rng = np.random.default_rng(10)
    stack = rng.standard_normal((3,) + g.dims + (4,))
    itp = Interpolator(g, rng.uniform(-1.0, 7.0, size=(11, 2)))
    want = np.moveaxis(itp(np.moveaxis(stack, -1, 1)), 1, -1)
    rows = stack.reshape(3, g.npoints, 4)
    got = np.full(want.shape, np.nan)
    for a, b in ((0, 4), (4, 9), (9, 11)):  # each range into its slice
        tap = np.empty((3, b - a, 4))
        itp.gather(rows, got[:, a:b], tap, a)
    assert np.array_equal(got, want)


def test_interpolator_rejects_values_on_another_grid():
    itp = Interpolator(Grid.cube(3, 8), np.zeros((4, 3)))
    with pytest.raises(ValueError, match="grid dims"):
        itp(np.zeros((16, 16, 16)))


@pytest.mark.parametrize("coord", [np.nan, np.inf, 1e30])
def test_interpolator_rejects_coordinates_it_cannot_index(coord):
    # 1e30 / h overflows the int64 cell index; NaN and inf have none
    f = ScalarField(Grid.cube(2, 8), np.ones((8, 8)))
    with pytest.raises(ValueError, match=r"on axis 0: not finite or 2\*\*62"):
        interpolate(f, [coord, 0.0])


def _four_mod_taps(x, h, n):
    """lagrange4_taps written out as four integer mods and the weights as
    whole products."""
    s = np.asarray(x, dtype=float) / h
    snapped = np.rint(s)
    s = np.where(np.abs(s - snapped) < 1e-9, snapped, s)
    i0 = np.floor(s).astype(np.int64)
    return [np.mod(i0 + o, n) for o in (-1, 0, 1, 2)], _product_weights(s - i0)


def _product_weights(t):
    return (-t * (t - 1.0) * (t - 2.0) / 6.0,
            (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
            -(t + 1.0) * t * (t - 2.0) / 2.0,
            (t + 1.0) * t * (t - 1.0) / 6.0)


@pytest.mark.parametrize("n", [8, 13])
def test_lagrange4_taps_have_the_bits_of_four_mods(n):
    h = 2 * np.pi / n
    rng = np.random.default_rng(9)
    cells = rng.integers(-3 * n, 3 * n, size=60).astype(float)
    far = 2.0 ** 61 * rng.uniform(0.9, 1.1, size=20)
    x = np.concatenate([
        rng.uniform(0.0, 2 * np.pi, 300),  # inside the box
        rng.uniform(-50.0, 0.0, 300),  # negative
        cells * h,  # on a node
        (cells + rng.uniform(-2e-9, 2e-9, 60)) * h,  # snapped, or just not
        np.concatenate([far, -far]) * h,  # ~2**61 cells from 0
    ]).reshape(5, -1)
    got_idx, got_w = lagrange4_taps(x, h, n)
    want_idx, want_w = _four_mod_taps(x, h, n)
    for g, w in zip(got_idx, want_idx):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    for g, w in zip(got_w, want_w):  # bytes, so that signed zeros count
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    for t in (0.0, 0.25, -0.5, 1.0 / 3.0, 0.999999):  # the time weights
        assert repr(lagrange4_weights(t)) == repr(_product_weights(t))
    with pytest.raises(ValueError) as info:
        lagrange4_taps(np.array([[0.5, 1.0], [np.inf, 2.0]]), h, n, axis=2,
                       first=7)
    assert str(info.value) == ("point 9 has coordinate inf on axis 2: not "
                               "finite or 2**62 or more cells from 0")


def test_interpolation_accuracy_off_nodes():
    g = Grid.cube(2, 64)
    rng = np.random.default_rng(4)
    poly = TrigPoly.random(2, 2, rng)
    f = _sample(poly, g)
    pts = np.random.default_rng(5).uniform(0, 2 * np.pi, size=(100, 2))
    err = np.max(np.abs(interpolate(f, pts) - poly.eval(pts)))
    assert err <= 1e-4  # cubic interpolation at h ~ 0.1


def test_interpolation_wraps_periodically():
    g = Grid((16,))
    f = _sample(TrigPoly.sin(1, (1,)), g)
    inside = interpolate(f, np.array([0.5]))
    outside = interpolate(f, np.array([0.5 + 2 * np.pi]))
    assert inside == pytest.approx(outside, abs=1e-12)


# ----------------------------------------------------------------------
# closed-form fields
# ----------------------------------------------------------------------

def test_taylor_green_is_steady_euler_solution():
    # u . grad u + grad p = 0 exactly, checked in the trig algebra
    u1, u2, p = taylor_green_2d()
    for c, comp in enumerate((u1, u2)):
        residual = u1 * comp.diff(0) + u2 * comp.diff(1) + p.diff(c)
        assert residual.max_abs() <= 1e-15


def test_taylor_green_is_divergence_free():
    u1, u2, _ = taylor_green_2d()
    assert (u1.diff(0) + u2.diff(1)).max_abs() <= 1e-15


def test_analytic_field_derivative_matches_fd():
    f = TrigPoly.band_limited(2, 2, np.random.default_rng(0))
    g = Grid.cube(2, 128)
    fd = partial_derivative(_sample(f, g), 1)
    assert (fd - _sample(f.diff(1), g)).max_abs() <= 1e-5


# ----------------------------------------------------------------------
# restriction
# ----------------------------------------------------------------------

def test_restrict_subsamples_nested_grids():
    fine = Grid.cube(2, 32)
    coarse = Grid.cube(2, 16)
    rng = np.random.default_rng(8)
    f = _sample(TrigPoly.random(2, 2, rng), fine)
    r = restrict(f, coarse)
    assert np.array_equal(r.values, f.values[::2, ::2])


def test_restrict_rejects_non_nested():
    with pytest.raises(ValueError):
        restrict(_sample(TrigPoly.zero(1), Grid((24,))), Grid((16,)))
