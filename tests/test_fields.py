"""Grids, finite differences, interpolation, and closed-form test fields."""

import multiprocessing
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rsflow import fields as fields_module
from rsflow.fields import (Grid, Interpolator, ScalarField, VectorField,
                           derivative, divergence, gradient_tensor, interpolate,
                           partial_derivative, restrict, second_derivative,
                           taylor_green_2d)
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


def test_second_derivative_fourth_order_convergence():
    f = TrigPoly.sin(1, (3,))
    exact = f.diff(0).diff(0)
    errs = []
    for n in (32, 64):
        g = Grid((n,))
        num = second_derivative(_sample(f, g).values, 0, g.spacing[0])
        errs.append(np.max(np.abs(num - _sample(exact, g).values)))
    ratio = errs[0] / errs[1]
    assert 14.0 < ratio < 18.0  # 2^4 = 16 for a 4th-order stencil


@pytest.mark.parametrize("stencil", [derivative, second_derivative])
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


def _rolled_second_derivative(values, axis, h):
    s = lambda k: np.roll(values, -k, axis)  # noqa: E731
    return (16.0 * (s(1) + s(-1)) - (s(2) + s(-2)) - 30.0 * values) / (12.0 * h * h)


@pytest.mark.parametrize("stencil, rolled", [
    (derivative, _rolled_derivative),
    (second_derivative, _rolled_second_derivative)])
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
        # the slab path once more, split three ways with uneven slabs,
        # whatever the CPU count of the test machine
        with ThreadPoolExecutor(3) as pool:
            monkeypatch.setattr(fields_module, "_slab_pool", lambda: (pool, 3))
            check()


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


def test_stencil_rejects_axis_shorter_than_its_reach():
    with pytest.raises(ValueError, match="at least 4 points along axis 1"):
        derivative(np.zeros((8, 3)), 1, 0.1)


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
    with pytest.raises(ValueError):
        ScalarField(g, bad)


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
