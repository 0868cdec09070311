"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
appear; under plain pytest they are captured and shown for failures.
The expensive simulations are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from rsflow.rsf import (canonical_antisymmetric, component_vorticities,
                        decomposition_plan)
from rsflow.solver import (SolverConfig, cfl_dt, init_state, run_simulation,
                           step_rk4)
from rsflow.verify import (VelocityHistory, frozen_convergence_study,
                           identity_suite, kinematic_frozen_case, lemma1_check,
                           residual_pde, wedge_invariant_study)


def _report(num, name, ok, detail):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ----------------------------------------------------------------------
# shared expensive runs
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def frozen_study():
    return frozen_convergence_study((32, 64, 128))


@pytest.fixture(scope="module")
def kinematic_history():
    cfg = SolverConfig(mode="kinematic_tg", dims=(32, 32, 32), t_end=1.0,
                       amplitude=0.3, kmax=1, snapshot_stride=2, seed=11)
    return VelocityHistory.from_result(run_simulation(cfg))


@pytest.fixture(scope="module")
def constrained_3d_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("constrained64")
    cfg = SolverConfig(mode="constrained", dims=(64, 64, 64), t_end=0.2,
                       amplitude=0.1, kmax=2, seed=7, snapshot_stride=8)
    return run_simulation(cfg, outdir=out, keep_history=True), out


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def test_criterion_1_decomposition_plan():
    start = time.perf_counter()
    ok = True
    for d in range(3, 13):
        plan = decomposition_plan(d)
        ok &= plan.m == (d + 1) // 2
        ok &= plan.m <= d * (d - 1) // 2
        ok &= plan.pairs == tuple((2 * i + 1, 2 * i + 2) for i in range(plan.m))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(1, "invariant decomposition plan d=3..12", ok,
            f"runtime {elapsed * 1e3:.2f} ms")


def test_criterion_2_identity_suite():
    start = time.perf_counter()
    worst = identity_suite(dims=range(3, 9), seeds=20)
    elapsed = time.perf_counter() - start
    bad = {k: v for k, v in worst.items() if v > 1e-12}
    ok = not bad and elapsed < 60.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _report(2, "closed-form identity suite <= 1e-12", ok,
            f"{detail}; runtime {elapsed:.1f} s")


def test_criterion_3_frozen_in_convergence(frozen_study):
    r = frozen_study
    errs_h = r.metrics["omega_h_l2_normalized"]
    errs_rest = r.metrics["omega_rest_l2_normalized"]
    ok = (r.orders["omega_h"] >= 2.5 and r.orders["omega_rest"] >= 2.5
          and errs_h[-1] <= 1e-4 and errs_rest[-1] <= 1e-4)
    _report(3, "manufactured frozen-in pullback convergence", ok,
            f"orders {r.orders['omega_h']:.2f}/{r.orders['omega_rest']:.2f}, "
            f"N=128 errors {errs_h[-1]:.2e}/{errs_rest[-1]:.2e}")


def test_criterion_4_residual_linearity(kinematic_history):
    h = kinematic_history
    plan = decomposition_plan(3)
    series = [[], []]
    for i in range(len(h.times)):
        omegas = component_vorticities(h.velocity_field(i), plan)
        series[0].append(omegas[0])
        series[1].append(omegas[1])
    lin = residual_pde(h, series)["linearity_rel_discrepancy"]
    _report(4, "residual operator linearity <= 1e-12", lin <= 1e-12,
            f"relative discrepancy {lin:.2e} over "
            f"{len(h.times) - 2} snapshots")


def test_criterion_5_wedge_invariant_d4():
    r = wedge_invariant_study()
    orders = r.orders
    factor_order = 0.5 * (orders["residual_1"] + orders["residual_2"])
    ok = (r.extras["bound_satisfied"]
          and abs(orders["residual_wedge"] - factor_order) <= 0.5)
    _report(5, "d=4 wedge residual: Leibniz bound + matching order", ok,
            f"orders {orders['residual_1']:.2f}/{orders['residual_2']:.2f}/"
            f"wedge {orders['residual_wedge']:.2f}, "
            f"bound satisfied {r.extras['bound_satisfied']}")


def test_criterion_6_negative_controls():
    # the rest component is the sensitive probe: the steady horizontal
    # 2-form is invariant under the reversed horizontal flow as well, so
    # negating u_h leaves its pullback error unchanged by symmetry
    good = kinematic_frozen_case(64)
    bad = kinematic_frozen_case(64, wrong_velocity=True)
    ratio = (bad["omega_rest"]["l2_normalized"]
             / good["omega_rest"]["l2_normalized"])
    lemma_good = lemma1_check(4, 2, seed=0)
    lemma_bad = lemma1_check(4, 2, seed=0, violate=True)
    lemma_ok = lemma_bad >= 1e3 * max(lemma_good, 1e-12)
    ok = ratio >= 1e3 and lemma_ok
    _report(6, "negative controls >= 1000x matched positives", ok,
            f"wrong-velocity ratio {ratio:.1e}, "
            f"lemma violation {lemma_bad:.1e} vs positive {lemma_good:.1e}")


def test_criterion_7_solver_health(tmp_path):
    # rest state exactly steady
    cfg0 = SolverConfig(mode="constrained", dims=(16, 16, 16), amplitude=0.0)
    s0 = init_state(cfg0)
    s1 = step_rk4(s0, cfg0, 0.01)
    rest_ok = all(np.array_equal(a, b) for a, b in
                  [(s0.u1, s1.u1), (s0.u2, s1.u2), (s0.u3, s1.u3),
                   (s0.rho, s1.rho)])

    # mass drift at 64^2 over one time unit
    cfg_m = SolverConfig(mode="constrained", dims=(64, 64, 8), t_end=1.0,
                         amplitude=0.1, seed=3, snapshot_stride=8)
    res_m = run_simulation(cfg_m, keep_history=False)
    masses = [row["mass"] for row in res_m.diagnostics]
    drift = abs(masses[-1] - masses[0]) / abs(masses[0])
    mass_ok = drift <= 1e-6

    # acoustic frequency at 128 points: a standing sin(x1) velocity mode
    # of amplitude eps oscillates at omega = c k with k = 1
    cfg_a = SolverConfig(mode="constrained", dims=(128, 8, 8), c=1.0)
    st = init_state(SolverConfig(mode="constrained", dims=(128, 8, 8),
                                 amplitude=0.0))
    x1 = st.grid2.axis_coords(0)[:, None]
    eps = 1e-4
    from dataclasses import replace
    st = replace(st, u1=eps * np.sin(x1) * np.ones(st.grid2.dims))
    dt = cfl_dt(st, cfg_a)
    nsteps = int(np.ceil(2.0 / dt))
    dt = 2.0 / nsteps
    amps, times = [], []
    for _ in range(nsteps):
        st = step_rk4(st, cfg_a, dt)
        amps.append(2.0 * float(np.mean(st.u1 * np.sin(x1))))
        times.append(st.time)
    amps = np.asarray(amps)
    idx = int(np.flatnonzero(np.sign(amps[:-1]) != np.sign(amps[1:]))[0])
    t0, t1 = times[idx], times[idx + 1]
    tc = t0 - amps[idx] * (t1 - t0) / (amps[idx + 1] - amps[idx])
    omega = (np.pi / 2) / tc  # first zero of cos(omega t)
    freq_err = abs(omega - cfg_a.c)
    freq_ok = freq_err <= 0.01 * cfg_a.c

    # byte reproducibility of seeded runs
    cfg_r = SolverConfig(mode="constrained", dims=(16, 16, 8), t_end=0.05,
                         amplitude=0.05, seed=12, snapshot_stride=2)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_simulation(cfg_r, outdir=dir_a, keep_history=False)
    run_simulation(cfg_r, outdir=dir_b, keep_history=False)
    pairs = list(zip(sorted(dir_a.glob("snap_*.rsff")),
                     sorted(dir_b.glob("snap_*.rsff"))))
    bytes_ok = bool(pairs) and all(a.read_bytes() == b.read_bytes()
                                   for a, b in pairs)

    ok = rest_ok and mass_ok and freq_ok and bytes_ok
    _report(7, "solver health", ok,
            f"rest steady {rest_ok}, mass drift {drift:.1e}, "
            f"acoustic freq error {freq_err:.1e}, "
            f"byte-reproducible {bytes_ok}")


def test_criterion_8_columnar_structure(constrained_3d_result, tmp_path):
    result, outdir = constrained_3d_result
    u1, u2, u3 = result.snapshots[-1]
    dev1 = float(np.max(np.abs(u1 - u1[:, :, :1])))
    dev2 = float(np.max(np.abs(u2 - u2[:, :, :1])))
    amp3 = float(np.max(np.abs(u3)))
    dev3 = float(np.max(np.abs(u3 - u3[:, :, :1])))
    ok = dev1 <= 1e-12 and dev2 <= 1e-12 and dev3 >= 1e-2 * amp3

    # the slice images behind the comparison
    from rsflow.cli import main
    snap = sorted(outdir.glob("snap_*.rsff"))[-1]
    for comp in ("u1", "u3"):
        for k in (0, 32):
            rc = main(["slice-image", "--snapshot", str(snap),
                       "--component", comp, "--axis3", str(k),
                       "--out", str(tmp_path / f"{comp}_{k}.ppm")])
            ok &= rc == 0
    u1_same = ((tmp_path / "u1_0.ppm").read_bytes()
               == (tmp_path / "u1_32.ppm").read_bytes())
    u3_differ = ((tmp_path / "u3_0.ppm").read_bytes()
                 != (tmp_path / "u3_32.ppm").read_bytes())
    ok = ok and u1_same and u3_differ
    _report(8, "columnar u_h with 3D u3 (2C2Dcw1C3D)", ok,
            f"u_h cross-slice dev {max(dev1, dev2):.1e}, "
            f"u3 cross-slice dev {dev3:.2e} vs amp {amp3:.2e}, "
            f"slice images: u1 identical {u1_same}, u3 distinct {u3_differ}")


def test_criterion_9_canonical_round_trip():
    rng = np.random.default_rng(42)
    worst = 0.0
    trials = 0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        m = d // 2
        rates = np.sort(rng.uniform(0.1, 3.0, size=m))[::-1]
        a = np.zeros((d, d))
        for i, t in enumerate(rates):
            a[2 * i + 1, 2 * i] = t
            a[2 * i, 2 * i + 1] = -t
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        rot = canonical_antisymmetric(q @ a @ q.T)
        worst = max(worst, float(np.max(np.abs(np.asarray(rot.rates) - rates))))
        trials += 1
    ok = trials == 100 and worst <= 1e-10
    _report(9, "canonical antisymmetric round trip d=2..8", ok,
            f"worst rate error {worst:.2e} over {trials} trials")
