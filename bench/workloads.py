"""The benchmark's three workloads and the checks on their outputs.

Each workload is a closed loop with one client: a pass runs to the end,
its outputs are checked, and only then does the next pass start.  A pass
goes through the public API that ``rsflow.cli`` uses, in process.

* ``simulate`` -- ``rsflow simulate`` on two configs (constrained 128^3
  and free 96^3, t_end 0.25), each writing RSFF snapshots and
  ``diagnostics.csv``, then ``rsflow check-rsf`` on each run's last
  snapshot.  One operation is one config run.
* ``frozen`` -- one manufactured frozen-in case,
  ``kinematic_frozen_case(32, seed=...)``: 32^3 particles, 8 snapshots,
  56 flow-map RK stages.  One operation is the case.
* ``identities`` -- the closed-form identity battery of
  ``rsflow verify-identities`` over d = 3..8 with one generator seed,
  run one dimension at a time, plus the ``--inject-violation`` negative
  control.  One operation is one dimension's battery or the control.  A
  pass takes about 1.5 s, so a run's median is taken over many passes.

Seeds: ``--seed`` goes into ``SolverConfig.seed`` (simulate),
``kinematic_frozen_case(seed=...)`` (frozen) and the negative control's
``lemma1_check(seed=...)`` (identities).  ``identity_suite`` fixes its
generator seeds itself (``10_000*d + s`` for ``s`` in ``range(seeds)``),
so the identity battery cannot be re-seeded through the public API.

The free config uses ``snapshot_stride=3``.  Its CFL step count at t = 0
is 10 or 11 depending on the seed's peak speed, and the stride rounds
both up to 12, so every seed does the same work.  The constrained config
(stride 4) always rounds to 16 steps and the kinematic case to 14.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from rsflow import cli, verify

MASS_DRIFT_MAX = 1e-12      # relative drift of total mass over a run
RSF_DEV_MAX = 1e-12         # largest required-zero velocity derivative
IDENTITY_TOL = 1e-12        # every closed-form identity
NEGATIVE_CONTROL_MIN = 1e-3 # the injected violation must show

# Pullback errors (l2_normalized) of kinematic_frozen_case(32) on the
# seed code.  omega_h depends only on the steady Taylor-Green field, so
# its reference holds for every seed; omega_rest holds for seed 11 only.
FROZEN_N = 32
FROZEN_REFERENCE_SEED = 11
FROZEN_REFERENCE = {"omega_h": 4.852811151274771e-05,
                    "omega_rest": 5.543191540234758e-03}
FROZEN_RTOL = 1e-3
# For other seeds omega_rest must stay within this factor of the
# reference: it is the same 4th-order truncation error of a unit-amplitude
# band-limited field (ten seeds from 0 to 12345 gave 0.95-1.18 times the
# reference).
FROZEN_REST_FACTOR = 2.0

# (mode, n, t_end, snapshot_stride) per config; n^3 grid
SIZES = {
    "full": {"simulate": (("constrained", 128, 0.25, 4),
                          ("free", 96, 0.25, 3)),
             "frozen": FROZEN_N,
             "identities": (tuple(range(3, 9)), 1)},
    "tiny": {"simulate": (("constrained", 16, 0.25, 4),
                          ("free", 16, 0.25, 3)),
             "frozen": 12,
             "identities": (tuple(range(3, 9)), 1)},
    "warmup": {"simulate": (("constrained", 16, 0.25, 4),
                            ("free", 16, 0.25, 3)),
               "frozen": 12,
               "identities": ((3,), 1)},
}


@dataclass
class PassResult:
    """Operations attempted and failed, work done, and every check made."""

    attempted: int = 0
    failed: int = 0
    work: float = 0.0
    checks: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def check(self, op, name, value, reference, ok) -> bool:
        self.checks.append({"op": op, "check": name, "value": value,
                            "reference": reference, "ok": bool(ok)})
        return bool(ok)

    def run_op(self, op, fn) -> None:
        """Run one operation; it fails if it raises or a check fails."""
        self.attempted += 1
        try:
            ok = fn()
        except Exception:  # a failed operation is counted, not fatal
            self.errors.append({"op": op, "error": traceback.format_exc()})
            ok = False
        if not ok:
            self.failed += 1


def _null_span(name):
    return contextlib.nullcontext()


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

@dataclass
class SimulateInputs:
    workdir: Path
    runs: tuple  # (mode, n, t_end, stride, config path)


def simulate_prepare(workdir: Path, seed: int, size: str) -> SimulateInputs:
    runs = []
    for mode, n, t_end, stride in SIZES[size]["simulate"]:
        path = workdir / f"{mode}.cfg"
        path.write_text(f"mode={mode}\ndims={n}\nt_end={t_end}\n"
                        f"snapshot_stride={stride}\nseed={seed}\n")
        runs.append((mode, n, t_end, stride, path))
    return SimulateInputs(workdir, tuple(runs))


def _simulate_one(res: PassResult, run, out: Path, span) -> bool:
    mode, n, _, stride, config = run
    with span("cli.simulate"), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out)])
    if not res.check(mode, "simulate_exit_code", rc, 0, rc == 0):
        return False
    with open(out / "diagnostics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    steps = (len(rows) - 1) * stride
    res.work += n ** 3 * steps
    m0, m1 = float(rows[0]["mass"]), float(rows[-1]["mass"])
    drift = abs(m1 - m0) / abs(m0)
    rsf_dev = max(float(r["rsf_dev"]) for r in rows)
    ok = res.check(mode, "mass_drift_rel", drift, MASS_DRIFT_MAX,
                   drift <= MASS_DRIFT_MAX)
    ok &= res.check(mode, "rsf_dev", rsf_dev, RSF_DEV_MAX,
                    rsf_dev <= RSF_DEV_MAX)
    # recorded, not failed: the RSF structure implies an exact zero
    res.check(mode, "rsf_dev_is_exact_zero", rsf_dev == 0.0, True, True)
    last = sorted(out.glob("snap_*.rsff"))[-1]
    buf = io.StringIO()
    with span("cli.check_rsf"), contextlib.redirect_stdout(buf):
        rc = cli.main(["check-rsf", "--field", str(last),
                       "--threshold", repr(RSF_DEV_MAX)])
    violation = float(buf.getvalue().strip().split("=", 1)[1])
    ok &= res.check(mode, "check_rsf", violation, RSF_DEV_MAX, rc == 0)
    return ok


def simulate_pass(inputs: SimulateInputs, span=_null_span) -> PassResult:
    res = PassResult()
    for run in inputs.runs:
        out = inputs.workdir / f"out_{run[0]}"
        try:
            res.run_op(run[0], lambda: _simulate_one(res, run, out, span))
        finally:
            shutil.rmtree(out, ignore_errors=True)
    return res


# ----------------------------------------------------------------------
# frozen
# ----------------------------------------------------------------------

@dataclass
class FrozenInputs:
    n: int
    seed: int


def frozen_prepare(workdir: Path, seed: int, size: str) -> FrozenInputs:
    return FrozenInputs(SIZES[size]["frozen"], seed)


def _frozen_checks(res: PassResult, inp: FrozenInputs, case: dict) -> bool:
    ok = True
    for comp in ("omega_h", "omega_rest"):
        err = case[comp]["l2_normalized"]
        ref = FROZEN_REFERENCE[comp]
        if inp.n != FROZEN_N:  # no reference at other sizes
            ok &= res.check("case", comp, err, 1.0,
                            math.isfinite(err) and err < 1.0)
        elif comp == "omega_h" or inp.seed == FROZEN_REFERENCE_SEED:
            ok &= res.check("case", comp, err, ref,
                            abs(err - ref) <= FROZEN_RTOL * ref)
        else:
            ok &= res.check("case", comp, err, ref,
                            ref / FROZEN_REST_FACTOR <= err
                            <= ref * FROZEN_REST_FACTOR)
    return ok


def frozen_pass(inputs: FrozenInputs, span=_null_span) -> PassResult:
    res = PassResult()

    def op():
        case = verify.kinematic_frozen_case(inputs.n, seed=inputs.seed)
        # kinematic_frozen_case samples every max(1, n // 32)-th node and
        # takes 2 RK4 substeps (4 stages each) per snapshot interval
        particles = (inputs.n // max(1, inputs.n // 32)) ** 3
        stages = 4 * 2 * (case["snapshots"] - 1)
        res.work += particles * stages
        res.counts["verify.particles"] = particles
        return _frozen_checks(res, inputs, case)

    res.run_op("case", op)
    return res


# ----------------------------------------------------------------------
# identities
# ----------------------------------------------------------------------

@dataclass
class IdentitiesInputs:
    dims: tuple
    seeds: int
    seed: int


def identities_prepare(workdir: Path, seed: int, size: str) -> IdentitiesInputs:
    dims, seeds = SIZES[size]["identities"]
    return IdentitiesInputs(dims, seeds, seed)


def identities_pass(inputs: IdentitiesInputs, span=_null_span) -> PassResult:
    res = PassResult()

    def battery(d):
        with span(f"verify.identity_suite.d{d}"):
            worst = verify.identity_suite(dims=[d], seeds=inputs.seeds)
        res.work += inputs.seeds
        ok = True
        for name, val in worst.items():
            ok &= res.check(f"d{d}", name, val, IDENTITY_TOL,
                            val <= IDENTITY_TOL)
        return ok

    def control():
        val = verify.lemma1_check(4, 2, inputs.seed, violate=True)
        return res.check("control", "lemma1_negative_control", val,
                         NEGATIVE_CONTROL_MIN, val > NEGATIVE_CONTROL_MIN)

    for d in inputs.dims:
        res.run_op(f"d{d}", lambda: battery(d))
    res.run_op("control", control)
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str  # what ``work_per_s`` counts
    prepare: object
    run_pass: object


WORKLOADS = {
    "simulate": Workload("simulate", "grid_updates", simulate_prepare,
                         simulate_pass),
    "frozen": Workload("frozen", "particle_stages", frozen_prepare,
                       frozen_pass),
    "identities": Workload("identities", "identity_checks",
                           identities_prepare, identities_pass),
}
