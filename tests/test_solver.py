"""Solver: configuration, modes, conservation, determinism, failure modes."""

import importlib.util
import math
import multiprocessing
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rsflow import fields as fields_module
from rsflow import rsf as rsf_module
from rsflow import solver as solver_module
from rsflow.fields import Grid, ScalarField, VectorField, derivative
from rsflow.rsf import ZeroPattern, check_rsf, zero_pattern
from rsflow.solver import (SolverConfig, assemble_velocity, cfl_dt,
                           diagnostics, format_config, init_state,
                           parse_config, rhs, rk4, run_simulation,
                           step_rk4)


SMALL = dict(dims=(16, 16, 8), t_end=0.05, amplitude=0.05, snapshot_stride=2)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

def test_config_round_trip():
    cfg = SolverConfig(mode="free", c=2.0, dims=(16, 32, 8), seed=5,
                       amplitude=0.02)
    assert parse_config(format_config(cfg)) == cfg


def test_config_parse_comments_and_blanks():
    cfg = parse_config("mode = constrained  # isothermal\n\nc = 0.5\n")
    assert cfg.mode == "constrained" and cfg.c == 0.5


def test_config_rejects_unknown_key():
    # the box is 2 pi periodic (the initial data are 2 pi periodic
    # TrigPolys), and the solver is inviscid
    for text in ("speed=1.0", "length=3.0", "nu=0.01"):
        key = text.split("=")[0]
        with pytest.raises(ValueError,
                           match=f"^config line 1: unknown key '{key}'$"):
            parse_config(text)


def test_config_rejects_missing_equals():
    with pytest.raises(ValueError, match="key=value"):
        parse_config("just some words")


@pytest.mark.parametrize("kw", [dict(mode="implicit"), dict(c=-1.0),
                                dict(cfl=1.5), dict(dims=(16, 16)),
                                dict(t_end=-1.0), dict(t_end=0.0),
                                dict(t_end=np.inf), dict(c=np.inf),
                                dict(c=np.nan), dict(amplitude=np.nan),
                                dict(cfl=np.nan), dict(amplitude=-0.1),
                                dict(snapshot_stride=0), dict(kmax=0),
                                dict(seed=-1), dict(dims=16, kmax=12)])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        SolverConfig(**kw)


def test_config_scalar_dims_broadcast():
    assert SolverConfig(dims=(32,)).dims == (32, 32, 32)


@pytest.mark.parametrize("dims", [(4, 16, 16), (0, 16, 16), (-8, 16, 16),
                                  (8.5, 16, 16)])
def test_config_rejects_bad_dims(dims):
    # the grid's own rule, named for dims before the kmax bound reads min(dims)
    with pytest.raises(ValueError, match=r"^all dims must be integers >= 8, got \("):
        SolverConfig(dims=dims, kmax=1)


def test_config_dims_checked_before_kmax():
    with pytest.raises(ValueError, match=r"^all dims must be integers >= 8, got \(4,\)$"):
        parse_config("dims=4\nkmax=1")
    with pytest.raises(ValueError, match=r"^2 \* kmax must be < min\(dims\) = 16, "
                                         r"got kmax = 12$"):
        SolverConfig(dims=(16, 32, 16), kmax=12)


# ----------------------------------------------------------------------
# fixed points and structure
# ----------------------------------------------------------------------

def test_rest_state_is_exact_fixed_point():
    cfg = SolverConfig(mode="constrained", dims=(16, 16, 16), amplitude=0.0)
    s0 = init_state(cfg)
    s1 = step_rk4(s0, cfg, 0.01)
    assert np.array_equal(s0.u1, s1.u1) and np.array_equal(s0.u2, s1.u2)
    assert np.array_equal(s0.u3, s1.u3) and np.array_equal(s0.rho, s1.rho)


def test_initial_state_is_exact_rsf():
    # broadcast horizontal components: the paired stencil gives exact zeros
    cfg = SolverConfig(mode="constrained", **SMALL)
    assert diagnostics(init_state(cfg), cfg)["rsf_dev"] == 0.0


def test_rsf_structure_preserved_during_run():
    cfg = SolverConfig(mode="constrained", **SMALL)
    result = run_simulation(cfg, keep_history=False)
    assert all(row["rsf_dev"] <= 1e-12 for row in result.diagnostics)


def test_kinematic_mode_freezes_horizontal_flow():
    cfg = SolverConfig(mode="kinematic_tg", **SMALL)
    result = run_simulation(cfg)
    first = result.snapshots[0]
    assert all(np.array_equal(s[0], first[0]) and np.array_equal(s[1], first[1])
               for s in result.snapshots)
    du1, du2, _, drho = rhs(init_state(cfg), cfg)
    assert du1 is None and du2 is None and drho is None


def test_mass_conserved_to_rounding():
    cfg = SolverConfig(mode="constrained", dims=(32, 32, 8), t_end=0.25,
                       amplitude=0.05, snapshot_stride=4)
    result = run_simulation(cfg, keep_history=False)
    masses = [row["mass"] for row in result.diagnostics]
    assert abs(masses[-1] - masses[0]) <= 1e-12 * abs(masses[0])


def test_free_mode_runs_and_logs_pressure_residual():
    cfg = SolverConfig(mode="free", **SMALL)
    result = run_simulation(cfg, keep_history=False)
    assert all(row["pressure_residual"] >= 0.0 for row in result.diagnostics)
    masses = [row["mass"] for row in result.diagnostics]
    assert abs(masses[-1] - masses[0]) <= 1e-12 * abs(masses[0])


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

def test_seeded_runs_are_bit_identical():
    cfg = SolverConfig(mode="constrained", seed=12, **SMALL)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert np.array_equal(a.final_state.u3, b.final_state.u3)
    assert np.array_equal(a.final_state.rho, b.final_state.rho)
    assert a.times == b.times


def test_different_seeds_differ():
    cfg_a = SolverConfig(mode="constrained", seed=1, **SMALL)
    cfg_b = SolverConfig(mode="constrained", seed=2, **SMALL)
    assert not np.array_equal(init_state(cfg_a).u1, init_state(cfg_b).u1)


# ----------------------------------------------------------------------
# time stepping details
# ----------------------------------------------------------------------

def test_cfl_excludes_sound_speed_in_kinematic_mode():
    cfg_kin = SolverConfig(mode="kinematic_tg", c=10.0, dims=(16, 16, 16))
    cfg_dyn = SolverConfig(mode="constrained", c=10.0, dims=(16, 16, 16))
    state = init_state(cfg_kin)
    assert cfl_dt(state, cfg_kin) > cfl_dt(state, cfg_dyn)


def test_snapshot_times_uniform():
    cfg = SolverConfig(mode="kinematic_tg", dims=(16, 16, 16), t_end=0.3,
                       snapshot_stride=3, amplitude=0.05)
    result = run_simulation(cfg, keep_history=False)
    gaps = np.diff(result.times)
    assert np.allclose(gaps, gaps[0], rtol=1e-12)
    assert result.times[-1] == pytest.approx(0.3)


def test_rk4_is_fourth_order_and_keeps_frozen_entries():
    # y' = y and z' = cos t from t = 0: e and sin 1 at t = 1
    frozen = np.ones(3)

    def slope(t, y):
        return [y[0], None, np.cos(t)]

    errors = []
    for n in (4, 8, 16):
        y = [np.array(1.0), frozen, np.array(0.0)]
        for i in range(n):
            y = rk4(slope, y, i / n, 1.0 / n)
            assert y[1] is frozen
        errors.append((abs(y[0] - math.e), abs(y[2] - math.sin(1.0))))
    for coarse, fine in zip(errors, errors[1:]):
        for a, b in zip(coarse, fine):
            assert 3.8 < math.log2(a / b) < 4.2


def test_self_steepening_abort():
    cfg = SolverConfig(mode="kinematic_tg", dims=(16, 16, 16), t_end=1.0,
                       amplitude=40.0, kmax=1)
    with pytest.raises(RuntimeError, match="self-steepening") as info:
        run_simulation(cfg, keep_history=False)
    # the initial data is already too steep: the first stage aborts
    state = init_state(cfg)
    d3u3 = np.abs(derivative(state.u3, 2, state.grid3.spacing[2]))
    node = np.unravel_index(np.argmax(d3u3), d3u3.shape)
    assert (f"|d3 u3| = {np.max(d3u3):.3g} > 20 at t=0, "
            f"node {tuple(int(i) for i in node)}") in str(info.value)


def test_step_abort_names_the_entry_time_and_node():
    # NaN, not Inf: inf - inf in the stencils would warn
    cfg = SolverConfig(mode="kinematic_tg", dims=(16, 16, 16))
    state = init_state(cfg)
    u3 = state.u3.copy()
    u3[9, 4, 11] = np.nan
    state = replace(state, u3=u3)
    dt = 0.01
    with pytest.raises(RuntimeError) as info:
        step_rk4(state, cfg, dt)
    # the stages spread the NaN along the stencils; the step names the
    # first node in C order
    y = rk4(lambda t, y: rhs(replace(state, u1=y[0], u2=y[1], u3=y[2],
                                     rho=y[3], time=t), cfg),
            [state.u1, state.u2, state.u3, state.rho], 0.0, dt)
    assert not any(np.isnan(v).any() for v in (y[0], y[1], y[3]))
    node = np.unravel_index(np.argmax(np.isnan(y[2])), u3.shape)
    assert str(info.value) == (f"step to t=0.01: u3 = nan at node "
                               f"{tuple(int(k) for k in node)}")


# ----------------------------------------------------------------------
# the slab-by-slab right-hand side
# ----------------------------------------------------------------------

# at least _SLAB_MIN_SIZE points, so rhs works in slabs on the pool, and
# x1 not a multiple of the slab height (10 planes of 96 x 64)
POOL_DIMS = (99, 96, 64)


def _unfused_rhs(state, cfg):
    """The right-hand side as whole-grid passes, in rhs's operation order
    (the steepness and density checks left out)."""
    h2, h3 = state.grid2.spacing, state.grid3.spacing
    u1, u2, u3, rho = state.u1, state.u2, state.u3, state.rho
    u1b, u2b = u1[:, :, None], u2[:, :, None]
    du3 = -(u1b * derivative(u3, 0, h3[0]) + u2b * derivative(u3, 1, h3[1]))
    du3 -= u3 * derivative(u3, 2, h3[2])
    if cfg.mode == "kinematic_tg":
        return None, None, du3, None
    pi = cfg.c ** 2 * np.log(rho)
    if cfg.mode == "constrained":
        gp1, gp2 = derivative(pi, 0, h2[0]), derivative(pi, 1, h2[1])
        drho = -(derivative(rho * u1, 0, h2[0])
                 + derivative(rho * u2, 1, h2[1]))
    else:
        pm = pi.mean(axis=2)
        gp1, gp2 = derivative(pm, 0, h2[0]), derivative(pm, 1, h2[1])
        du3 = du3 - derivative(pi, 2, h3[2])
        drho = -(derivative(rho * u1b, 0, h3[0])
                 + derivative(rho * u2b, 1, h3[1])
                 + derivative(rho * u3, 2, h3[2]))
    du1 = -(u1 * derivative(u1, 0, h2[0]) + u2 * derivative(u1, 1, h2[1])) - gp1
    du2 = -(u1 * derivative(u2, 0, h2[0]) + u2 * derivative(u2, 1, h2[1])) - gp2
    return du1, du2, du3, drho


def _same(a, b):
    return all(x is None and y is None or np.array_equal(x, y)
               for x, y in zip(a, b))


@pytest.fixture
def three_slab_threads(monkeypatch):
    # the pool path with three threads, whatever the CPU count
    with ThreadPoolExecutor(3) as pool:
        monkeypatch.setattr(fields_module, "_slab_pool", lambda: pool)
        yield


def test_pool_grid_is_cut_into_uneven_slabs():
    plane = POOL_DIMS[1] * POOL_DIMS[2]
    assert math.prod(POOL_DIMS) >= fields_module._SLAB_MIN_SIZE
    assert POOL_DIMS[0] % (fields_module._SLAB_SIZE // plane) != 0


@pytest.mark.parametrize("mode", ["constrained", "free", "kinematic_tg"])
# the ids are the ones these cases had while the solver also took a
# viscosity, whose value (0.0) they name
@pytest.mark.parametrize("dims", [pytest.param((16, 16, 16), id="dims0-0.0"),
                                  pytest.param(POOL_DIMS, id="dims2-0.0")])
def test_rhs_is_bit_identical_to_whole_grid_passes(mode, dims,
                                                   three_slab_threads):
    cfg = SolverConfig(mode=mode, dims=dims, seed=3)
    state = init_state(cfg)
    assert _same(rhs(state, cfg), _unfused_rhs(state, cfg))


@pytest.mark.parametrize("dims", [(16, 16, 16), POOL_DIMS])
def test_free_pressure_gradient_is_the_x3_mean_of_the_3d_one(dims,
                                                            three_slab_threads):
    # the horizontal gradient of Pi's x3-mean against the x3-mean of Pi's
    # 3D horizontal gradient: equal in exact arithmetic; du3 and drho do
    # not use it
    cfg = SolverConfig(mode="free", dims=dims, seed=3)
    state = init_state(cfg)
    du1, du2, du3, drho = rhs(state, cfg)
    pi = cfg.c ** 2 * np.log(state.rho)
    h2, h3 = state.grid2.spacing, state.grid3.spacing
    u1, u2 = state.u1, state.u2
    for k, du, u in ((0, du1, u1), (1, du2, u2)):
        gp = derivative(pi, k, h3[k]).mean(axis=2)
        adv = -(u1 * derivative(u, 0, h2[0]) + u2 * derivative(u, 1, h2[1]))
        assert np.max(np.abs(du - (adv - gp))) <= 1e-13 * np.max(np.abs(gp))
    _, _, du3_ref, drho_ref = _unfused_rhs(state, cfg)
    assert np.array_equal(du3, du3_ref) and np.array_equal(drho, drho_ref)


def _steep_state(mode, amplitudes):
    # u3 = A sin x3 on x1-planes 20 and 80 only, which lie in different
    # slabs; d3 u3 there is about A, and 0 elsewhere
    cfg = SolverConfig(mode=mode, dims=POOL_DIMS)
    state = init_state(cfg)
    x3 = state.grid3.axis_coords(2)
    u3 = np.zeros(state.grid3.dims)
    for plane, amp in zip((20, 80), amplitudes):
        u3[plane] = amp * np.sin(x3)
    return cfg, replace(state, u3=u3)


@pytest.mark.parametrize("amplitudes", [(30.0, 40.0), (40.0, 40.0)])
def test_steepness_abort_names_the_whole_grid_value_and_node(
        amplitudes, three_slab_threads):
    # (30, 40): both slabs are past the abort value, the later one is the
    # steepest; (40, 40): a tie goes to the first node in C order
    cfg, state = _steep_state("constrained", amplitudes)
    d3u3 = np.abs(derivative(state.u3, 2, state.grid3.spacing[2]))
    node = np.unravel_index(np.argmax(d3u3), d3u3.shape)
    assert node[0] == (80 if amplitudes[0] < amplitudes[1] else 20)
    with pytest.raises(RuntimeError, match="self-steepening") as info:
        rhs(state, cfg)
    assert (f"|d3 u3| = {np.max(d3u3):.3g} > 20 at t=0, "
            f"node {tuple(int(i) for i in node)}") in str(info.value)


@pytest.mark.parametrize("steep", [True, False])
def test_steepness_is_reported_before_a_non_positive_density(
        steep, three_slab_threads):
    cfg, state = _steep_state("free", (40.0 if steep else 0.0, 0.0))
    rho = state.rho.copy()
    rho[50, 3, 7] = -0.5
    with pytest.raises(RuntimeError, match="self-steepening" if steep
                       else r"density non-positive at t=0") as info:
        rhs(replace(state, rho=rho), cfg)
    if not steep:
        assert str(info.value).endswith(": rho = -0.5 at node (50, 3, 7)")


def _rhs_in_child(state, cfg, expected, nested):
    if nested:
        # every stencil inside a slab job would be cut into slabs again;
        # a pool thread runs them itself instead of waiting on the pool
        fields_module._SLAB_MIN_SIZE = fields_module._SLAB_SIZE = 1
    sys.exit(0 if _same(rhs(state, cfg), expected) else 1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
@pytest.mark.parametrize("nested", [False, True])
def test_rhs_runs_on_the_pool_in_a_forked_child(nested):
    # the parent's pool exists before the fork; the child makes its own
    cfg = SolverConfig(mode="free", dims=POOL_DIMS, seed=4)
    state = init_state(cfg)
    expected = rhs(state, cfg)
    child = multiprocessing.get_context("fork").Process(
        target=_rhs_in_child, args=(state, cfg, expected, nested))
    child.start()
    child.join(timeout=60)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join()
    assert not alive and child.exitcode == 0


# ----------------------------------------------------------------------
# rk4 and the diagnostics in slabs
# ----------------------------------------------------------------------

def _whole_array_rk4(f, y, t, dt):
    """rk4 as whole-array expressions."""
    def stage(k, s):
        return [a if b is None else a + s * b for a, b in zip(y, k)]

    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, stage(k1, 0.5 * dt))
    k3 = f(t + 0.5 * dt, stage(k2, 0.5 * dt))
    k4 = f(t + dt, stage(k3, dt))
    return [a if b1 is None else a + (dt / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


# a 2D entry of at least _SLAB_MIN_SIZE points whose x1 is not a multiple
# of the slab height (65 rows of 1000)
ROWS = (300, 1000)


def test_rk4_entries_are_cut_into_uneven_slabs():
    assert math.prod(ROWS) >= fields_module._SLAB_MIN_SIZE
    assert ROWS[0] % (fields_module._SLAB_SIZE // ROWS[1]) != 0


def test_rk4_in_slabs_is_the_whole_array_step(three_slab_threads):
    rng = np.random.default_rng(5)
    frozen = np.ones(4)
    y = [np.array(0.5),  # 0-d
         rng.normal(size=300_000),  # 1-D
         rng.normal(size=ROWS),
         rng.normal(size=POOL_DIMS),
         np.broadcast_to(rng.normal(size=POOL_DIMS[1:]), POOL_DIMS),
         rng.normal(size=POOL_DIMS[::-1]).T,
         rng.normal(size=ROWS).astype(np.float32),
         frozen]
    before = [np.copy(a) for a in y]
    returned = []  # each slope with a copy of its values when returned

    def slope(t, y):
        # y[0] and y[3] are their own slopes: k1 is the entry and k2, k3
        # and k4 are the stages themselves
        ks = [y[0], np.cos(t) * y[1], y[2] ** 2 - t, y[3],
              np.sin(y[3]) + t, np.cos(y[5]), np.sin(y[6]) - t, None]
        returned.extend((k, np.copy(k)) for k in ks if k is not None)
        return ks

    got = rk4(slope, y, 0.3, 0.1)
    for a, b in zip(y, before):
        assert np.array_equal(a, b)
    for k, values in returned:
        assert np.array_equal(k, values)
    assert got[-1] is frozen
    expected = _whole_array_rk4(slope, y, 0.3, 0.1)
    for g, e in zip(got, expected):
        assert g.shape == e.shape and g.dtype == e.dtype
        assert np.array_equal(g, e)
    assert got[6].dtype == np.float32


def test_rk4_holds_three_entry_sizes_beyond_its_input():
    # y, the accumulator, one stage and one slope: beyond the caller's y,
    # rk4 and a slope that allocates only its result hold three entries at
    # most, plus the slab temporaries of 2 k3 while only two are alive
    y = [np.random.default_rng(7).normal(size=2 ** 20)]
    tracemalloc.start()
    try:
        rk4(lambda t, y: [np.cos(y[0])], y, 0.0, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * y[0].nbytes + 8 * fields_module._SLAB_SIZE


def _whole_grid_rsf_dev(u, pattern):
    # np.max, not max(), so that a NaN maximum stays NaN
    return float(np.max([np.max(np.abs(derivative(
        u.components[c - 1].values, r - 1, u.grid.spacing[r - 1])))
        for c, r in pattern.required_zero], initial=0.0))


def _whole_grid_pressure_residual(state, cfg):
    if cfg.mode != "free":
        return 0.0
    pi = cfg.c ** 2 * np.log(state.rho)
    h3 = state.grid3.spacing
    worst = 0.0
    for a in (0, 1):
        gp = derivative(pi, a, h3[a])
        worst = max(worst, float(np.max(np.abs(gp - gp.mean(axis=2)[:, :, None]))))
    return worst


def _whole_grid_diagnostics(state, cfg):
    """diagnostics as whole-grid passes."""
    g3 = state.grid3
    rho3 = state.rho if state.rho.ndim == 3 else \
        np.broadcast_to(state.rho[:, :, None], g3.dims)
    vel = assemble_velocity(state)
    u1b, u2b, u3 = (c.values for c in vel.components)
    dv = g3.cell_volume
    energy = 0.5 * dv * float(np.sum(rho3 * (u1b ** 2 + u2b ** 2 + u3 ** 2)))
    cell = g3.cell_volume if state.rho.ndim == 3 else state.grid2.cell_volume
    umax = float(max(np.max(np.abs(state.u1)), np.max(np.abs(state.u2)),
                     np.max(np.abs(state.u3))))
    return {"time": state.time, "energy": energy,
            "mass": cell * float(np.sum(state.rho)),
            "rho_min": float(np.min(state.rho)),
            "rho_max": float(np.max(state.rho)), "umax": umax,
            "rsf_dev": _whole_grid_rsf_dev(vel, zero_pattern(3)),
            "pressure_residual": _whole_grid_pressure_residual(state, cfg)}


@pytest.mark.parametrize("mode", ["constrained", "free"])
def test_diagnostics_in_slabs_are_the_whole_grid_values(mode,
                                                        three_slab_threads):
    # with seed 3, summing the energy integrand slab by slab would round
    # differently from the one pairwise sum of the whole integrand
    cfg = SolverConfig(mode=mode, dims=POOL_DIMS, seed=3, amplitude=0.3)
    state = init_state(cfg)
    expected = _whole_grid_diagnostics(state, cfg)
    assert diagnostics(state, cfg) == expected
    assert (expected["pressure_residual"] > 0) == (mode == "free")


@pytest.mark.parametrize("pattern", [
    zero_pattern(3), ZeroPattern(3, frozenset({(2, 1), (3, 1), (1, 3)}))],
    ids=["rsf", "with-x1"])
def test_check_rsf_in_slabs_is_the_whole_grid_value(pattern,
                                                    three_slab_threads):
    # a generic (non-RSF) field, so every entry is nonzero; the second
    # pattern differentiates along x1, which reads halo planes
    rng = np.random.default_rng(6)
    grid = Grid(POOL_DIMS)
    u = VectorField.from_arrays(grid, rng.normal(size=(3,) + POOL_DIMS))
    expected = _whole_grid_rsf_dev(u, pattern)
    assert expected > 0 and check_rsf(u, pattern) == expected


def _broadcast_velocity(dims, nan):
    """u1 and u2 stored once per column (stride 0 along x3), u2 also
    broadcast along x1 (stride 0 along the slab axis), u3 full; with
    ``nan``, u1's column at x1 = 0 and at the last x1 is NaN, so the first
    and last slabs, whose halos wrap, read it."""
    rng = np.random.default_rng(8)
    u1 = rng.normal(size=dims[:2])
    if nan:
        u1[0, 3] = u1[-1, 5] = np.nan
    u2 = rng.normal(size=dims[1])
    arrays = [np.broadcast_to(u1[:, :, None], dims),
              np.broadcast_to(u2[None, :, None], dims),
              rng.normal(size=dims)]
    grid = Grid(dims)
    return VectorField(grid, tuple(ScalarField._unchecked(grid, a) for a in arrays))


@pytest.mark.parametrize("threads", ["pool", "one"])
@pytest.mark.parametrize("dims", [(16, 16, 16), POOL_DIMS])
@pytest.mark.parametrize("nan", [False, True], ids=["zero", "nan"])
@pytest.mark.parametrize("pattern", [
    zero_pattern(3), ZeroPattern(3, frozenset({(2, 1), (3, 1), (1, 3)}))],
    ids=["rsf", "with-x1"])
def test_check_rsf_on_broadcast_components_is_the_whole_grid_value(
        pattern, nan, dims, threads, three_slab_threads, monkeypatch):
    # a component broadcast along a required-zero axis is checked on one
    # fibre; u2's stride 0 along x1 is the slab axis, which is not cut
    if threads == "one":
        monkeypatch.setattr(fields_module, "_slab_pool", lambda: None)
    u = _broadcast_velocity(dims, nan)
    expected = _whole_grid_rsf_dev(u, pattern)
    got = check_rsf(u, pattern)
    assert np.isnan(expected) == nan
    assert repr(got) == repr(expected)
    if not nan:
        assert (expected > 0) == (pattern != zero_pattern(3))


def test_check_rsf_differentiates_a_broadcast_component_on_one_fibre(
        three_slab_threads, monkeypatch):
    # cut before with_halo: the wrapped end slabs would copy all of x3
    shapes = []

    def spy(values, axis, h, halo=0):
        shapes.append(np.shape(values)[axis])
        return derivative(values, axis, h, halo)

    monkeypatch.setattr(rsf_module, "derivative", spy)
    assert check_rsf(_broadcast_velocity(POOL_DIMS, False), zero_pattern(3)) == 0.0
    assert len(shapes) > 4 and set(shapes) == {4}


def test_each_full_grid_maximum_is_one_slab_pass(monkeypatch):
    # diagnostics makes one pass of its own (energy, max |u3| and the
    # pressure residual) and check_rsf's one pass over all its entries
    calls = []
    for module in (solver_module, rsf_module):
        def counted(job, n, plane, name=module.__name__):
            calls.append(name)
            return fields_module.map_slabs(job, n, plane)
        monkeypatch.setattr(module, "map_slabs", counted)
    cfg = SolverConfig(mode="free", dims=(64, 64, 64), seed=3)
    state = init_state(cfg)
    diagnostics(state, cfg)
    assert sorted(calls) == ["rsflow.rsf", "rsflow.solver"]
    calls.clear()
    check_rsf(assemble_velocity(state), zero_pattern(3))
    assert calls == ["rsflow.rsf"]
    calls.clear()
    rhs(state, cfg)
    assert calls == ["rsflow.solver"]


def _tracer_module():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_slab_jobs_call_no_traced_function(three_slab_threads, monkeypatch):
    # the benchmark's tracer keeps one span stack for all threads, so the
    # functions it wraps must not run in a pool job
    tracer = _tracer_module()
    seen = {}

    class ThreadRecorder(tracer.Tracer):
        def _wrap(self, name, fn):
            def wrapper(*args, **kwargs):
                seen.setdefault(name, set()).add(threading.current_thread())
                return fn(*args, **kwargs)
            return wrapper

    def spy(*args, **kwargs):
        seen.setdefault("derivative", set()).add(threading.current_thread())
        return derivative(*args, **kwargs)

    for module in (solver_module, rsf_module):
        monkeypatch.setattr(module, "derivative", spy)
    with ThreadRecorder().installed():
        for mode in ("constrained", "free"):
            cfg = SolverConfig(mode=mode, dims=POOL_DIMS, seed=5)
            state = init_state(cfg)
            solver_module.step_rk4(state, cfg, 0.01)
            solver_module.diagnostics(state, cfg)
    me = threading.current_thread()
    assert seen.pop("derivative") - {me}  # the slab jobs ran on the pool
    assert {"solver.step_rk4", "solver.rhs", "solver.diagnostics",
            "rsf.check_rsf"} <= set(seen)
    for name, threads in seen.items():
        assert threads == {me}, name


def test_diagnostics_energy_positive():
    cfg = SolverConfig(mode="constrained", **SMALL)
    row = diagnostics(init_state(cfg), cfg)
    assert row["energy"] > 0 and row["rho_min"] > 0
