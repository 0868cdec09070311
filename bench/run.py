#!/usr/bin/env python3
"""rsflow benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload simulate --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 0

``--trace 0`` times closed-loop passes of one workload with tracing off
and reports the end-to-end metrics of ``BENCHMARK.json``: ``wall_s``
(median pass time), ``setup_s`` (median of five set-ups),
``peak_rss_mb`` and ``work_per_s``.  ``--trace 1`` reports the per-layer
metrics instead: one traced pass of every workload, spans around the
calls into each rsflow layer, the kernel probes, and the named
workload's tracing overhead and span coverage.  ``--workload all`` runs
each workload in its own process and prints one summary.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it describe the run, its checks and its environment.  The program is
imported from ``src/`` next to this directory; without it the benchmark
exits with code 2 and prints no result.
"""

import os

# one process on a small machine: measure rsflow, not the thread scheduler
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
WORKLOAD_NAMES = ("simulate", "frozen", "identities")
SETUP_REPEATS = 5
MIN_PASSES = 2
CHILD_TIMEOUT_S = 900


def _fresh_import_s() -> float:
    """Wall time of a new interpreter that imports numpy and rsflow."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls the child every 50 ms, which
    # would round this time up by as much
    subprocess.run([sys.executable, "-c", "import rsflow"], env=env,
                   check=True)
    return time.perf_counter() - t0


def _command_output(cmd) -> str:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30,
                              cwd=ROOT)
    except (OSError, subprocess.SubprocessError):
        return ""
    return proc.stdout if proc.returncode == 0 else ""


def environment(seed: int) -> dict:
    import numpy as np
    caches = {}
    for line in _command_output(["lscpu"]).splitlines():
        key, _, val = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = val.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "l2_cache": caches.get("L2 cache", "unknown"),
        "l3_cache": caches.get("L3 cache", "unknown"),
        "git_commit": _command_output(["git", "rev-parse", "HEAD"]).strip()
        or "unknown",
        "seed": seed,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _tail_percentile(samples) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    ordered = sorted(samples)
    return {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}


class Run:
    """One benchmark run: set-up, passes and the checks they made."""

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.warmup_ok = True
        self.failures: list = []
        self.checks: dict = {}
        self.cpu_s: list = []  # CPU time of each pass, for the report

    def record(self, name, result, counted=True) -> None:
        if counted:
            self.attempted += result.attempted
            self.failed += result.failed
        else:
            self.warmup_ok &= result.failed == 0
        # the latest value of each check, next to its reference
        for row in result.checks:
            self.checks[f"{name}.{row['op']}.{row['check']}"] = row
        self.failures.extend(result.errors)
        self.failures.extend(dict(row, workload=name) for row in result.checks
                             if not row["ok"])

    def set_up(self, wl):
        """Fresh-process import, inputs in a new directory, warm-up pass."""
        t0 = time.perf_counter()
        import_s = _fresh_import_s()
        wdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=self.workdir))
        warm = wl.prepare(wdir, self.seed, "warmup")
        self.record(wl.name, wl.run_pass(warm), counted=False)
        inputs = wl.prepare(wdir, self.seed, self.size)
        return inputs, time.perf_counter() - t0, import_s

    def timed_pass(self, wl, inputs, span=None):
        c0, t0 = time.process_time(), time.perf_counter()
        result = wl.run_pass(inputs) if span is None \
            else wl.run_pass(inputs, span)
        wall = time.perf_counter() - t0
        self.cpu_s.append(time.process_time() - c0)
        self.record(wl.name, result)
        return result, wall

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.warmup_ok


def measure(wl, run: Run, seconds: float):
    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        inputs, setup_s, import_s = run.set_up(wl)
        setups.append(setup_s)
        imports.append(import_s)
    walls, work = [], []
    start = time.perf_counter()
    # start a pass only if, at the median pass time so far, it ends in time
    while len(walls) < MIN_PASSES or (time.perf_counter() - start
                                      + statistics.median(walls) <= seconds):
        result, wall = run.timed_pass(wl, inputs)
        walls.append(wall)
        work.append(result.work)
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "work_per_s": (statistics.median(work) / wall_s, "1/s"),
    }
    details = {
        "passes": len(walls),
        "wall_s_samples": walls, "wall_s_tail": _tail_percentile(walls),
        "cpu_s_samples": run.cpu_s[-len(walls):],
        "setup_s_samples": setups, "fresh_import_s_samples": imports,
        "work_unit": wl.work_unit,
        f"{wl.work_unit}_per_s": metrics["work_per_s"][0],
        "work_per_pass": statistics.median(work),
    }
    return metrics, details


def trace(name: str, run: Run):
    from probes import run_probes
    from tracer import Tracer
    from workloads import WORKLOADS

    inputs = {}
    for wname in WORKLOAD_NAMES:
        inputs[wname], _, _ = run.set_up(WORKLOADS[wname])
    _, untraced_wall = run.timed_pass(WORKLOADS[name], inputs[name])
    tracers, walls, particles = {}, {}, 0
    # the named workload first, right after its untraced pass
    for wname in sorted(WORKLOAD_NAMES, key=lambda w: w != name):
        tracer = Tracer()
        with tracer.installed():
            with tracer.span(f"pass.{wname}"):
                result, walls[wname] = run.timed_pass(
                    WORKLOADS[wname], inputs[wname], tracer.span)
        tracers[wname] = tracer
        particles = result.counts.get("verify.particles", particles)
    spans = {w: t.summary() for w, t in tracers.items()}

    def span_total(wname, span_name):
        return spans[wname].get(span_name, {}).get("total_s", 0.0)

    def span_calls(wname, span_name):
        return spans[wname].get(span_name, {}).get("calls", 0)

    metrics = run_probes(run.seed, run.size, run.workdir)
    metrics.update({
        "solver.run_simulation_s": (
            span_total("simulate", "solver.run_simulation"), "s"),
        "solver.steps": (span_calls("simulate", "solver.step_rk4"), "count"),
        "solver.steps.frozen": (span_calls("frozen", "solver.step_rk4"),
                                "count"),
        "verify.advect_flowmap_s": (
            span_total("frozen", "verify.advect_flowmap"), "s"),
        "verify.rk_stages": (
            span_calls("frozen", "verify.VelocityHistory.velocity_at"),
            "count"),
        "verify.particles": (particles, "count"),
        "fields.interp_calls": (
            span_calls("frozen", "fields.Interpolator.__call__"), "count"),
        "trace.overhead_s": (walls[name] - untraced_wall, "s"),
        "trace.coverage": (tracers[name].coverage(), "ratio"),
    })
    for d in range(3, 9):
        metrics[f"verify.identity_ms.d{d}"] = (
            1e3 * span_total("identities", f"verify.identity_suite.d{d}"), "ms")
    details = {
        "untraced_wall_s": untraced_wall, "traced_wall_s": walls,
        "layer_self_s": {w: t.layer_self_seconds() for w, t in tracers.items()},
        "spans": spans,
    }
    return metrics, details


def run_one(args) -> int:
    if not (SRC / "rsflow" / "__init__.py").is_file():
        print(f"error: no rsflow package under {SRC}; run from the root of "
              "an rsflow checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    run = Run(args.seed, args.size, workdir)
    try:
        if args.trace:
            metrics, details = trace(args.workload, run)
        else:
            metrics, details = measure(WORKLOADS[args.workload], run,
                                       args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    ratio = run.failed / run.attempted if run.attempted else float("nan")
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  correct {run.correct}")
    print(f"  ops_failed_ratio  {ratio:g}  ({run.failed} of {run.attempted} "
          "operations failed)")
    for key, (value, unit) in sorted(metrics.items()):
        print(f"  {key:36s} {value:.6g} {unit}")
    if not args.trace:
        print(f"  wall_s is the median of {details['passes']} passes; "
              f"work_per_s is {details['work_unit']}_per_s")
    for key, row in sorted(run.checks.items()):
        print(f"  check {key}: {row['value']!r} (reference {row['reference']!r})"
              f" {'ok' if row['ok'] else 'FAIL'}")
    for row in run.failures[:10]:
        print(f"  failure: {row}", file=sys.stderr)
    report = {"environment": environment(args.seed),
              "workload": args.workload, "trace": args.trace,
              "size": args.size, "ops_failed_ratio": ratio,
              "checks": run.checks, "details": details}
    print(json.dumps(report))
    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        report, results[name] = json.loads(lines[-2]), json.loads(lines[-1])
        ratio = results[name]["failed"] / results[name]["attempted"]
        print(f"{name}: correct={results[name]['correct']} "
              f"ops_failed_ratio={ratio:g}")
        for key, m in results[name]["metrics"].items():
            print(f"  {key:36s} {m['value']:.6g} {m['unit']}")
        if not args.trace:
            print(f"  work_per_s is {report['details']['work_unit']}_per_s")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measure passes that end within this long "
                        f"(and at least {MIN_PASSES} passes)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small grids for the harness self-test")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
