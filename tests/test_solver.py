"""Solver: configuration, modes, conservation, determinism, failure modes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rsflow.fields import derivative
from rsflow.solver import (SolverConfig, cfl_dt, diagnostics, format_config,
                           init_state, parse_config, rhs, rk4, run_simulation,
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
    # the box is 2 pi periodic: the initial data are 2 pi periodic TrigPolys
    for text in ("speed=1.0", "length=3.0"):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(text)


def test_config_rejects_missing_equals():
    with pytest.raises(ValueError, match="key=value"):
        parse_config("just some words")


@pytest.mark.parametrize("kw", [dict(mode="implicit"), dict(c=-1.0),
                                dict(cfl=1.5), dict(nu=-0.1),
                                dict(dims=(16, 16)), dict(t_end=-1.0),
                                dict(t_end=0.0), dict(t_end=np.inf),
                                dict(c=np.inf), dict(c=np.nan),
                                dict(amplitude=np.nan), dict(nu=np.nan),
                                dict(cfl=np.nan), dict(amplitude=-0.1),
                                dict(snapshot_stride=0), dict(kmax=0),
                                dict(seed=-1)])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        SolverConfig(**kw)


def test_config_scalar_dims_broadcast():
    assert SolverConfig(dims=(32,)).dims == (32, 32, 32)


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


def test_viscous_term_damps_a_single_mode():
    # u3 = sin x1 alone: advection vanishes, so du3 is nu times the
    # 4th-order Laplacian of u3, which is -u3 up to h^4 / 90
    nu = 0.05
    cfg = SolverConfig(mode="constrained", nu=nu, dims=(16, 8, 8))
    state = init_state(cfg)
    x1 = state.grid3.axis_coords(0)[:, None, None]
    state = replace(state, u1=np.zeros(state.grid2.dims),
                    u2=np.zeros(state.grid2.dims),
                    u3=np.sin(x1) * np.ones(state.grid3.dims),
                    rho=np.ones(state.grid2.dims))
    du1, du2, du3, drho = rhs(state, cfg)
    assert not np.any(du1) and not np.any(du2) and not np.any(drho)
    h = state.grid3.spacing[0]
    err = np.max(np.abs(du3 + nu * state.u3))
    assert 0 < err <= nu * h ** 4 / 90 * 1.01


def test_diagnostics_energy_positive():
    cfg = SolverConfig(mode="constrained", **SMALL)
    row = diagnostics(init_state(cfg), cfg)
    assert row["energy"] > 0 and row["rho_min"] > 0
