#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny sizes.

Run from the root of a checkout (about a minute; not part of the test
suite, so it does not slow the tests down):

    python3 bench/selftest.py

It checks that
* every end-to-end metric named in BENCHMARK.json is emitted with its
  unit by ``--trace 0``, and every per-layer metric by ``--trace 1``, for
  every workload the harness runs (also those BENCHMARK.json does not
  list), with ``correct`` true and no failed operation;
* the count metrics repeat exactly across two traced runs with
  different seeds;
* in a directory holding only BENCHMARK.json and the harness, the
  benchmark exits with a non-zero code and prints no result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import WORKLOAD_NAMES

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 600


def run_bench(workload, seed, trace, cwd=ROOT):
    """BENCHMARK.json's command, run from ``cwd`` like any benchmark run."""
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", "1", "--trace", str(trace),
                              "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=TIMEOUT_S)


def result_of(proc, label):
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit code {proc.returncode}\n"
                             f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{label}: correct={result['correct']} "
                             f"failed={result['failed']}")
    return result


def check_metrics(result, specs, label):
    got = result["metrics"]
    names = {s["name"] for s in specs}
    if set(got) != names:
        raise AssertionError(f"{label}: missing {sorted(names - set(got))}, "
                             f"unexpected {sorted(set(got) - names)}")
    for spec in specs:
        metric = got[spec["name"]]
        if metric["unit"] != spec["unit"]:
            raise AssertionError(f"{label}: {spec['name']} unit "
                                 f"{metric['unit']!r} != {spec['unit']!r}")
        if not isinstance(metric["value"], (int, float)):
            raise AssertionError(f"{label}: {spec['name']} is not a number")


def check_bare_directory():
    parent = ROOT / ".bench_work"
    parent.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=parent))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("simulate", 0, 0, cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            raise AssertionError("bare directory: the benchmark did not fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it


def main() -> int:
    counts = [s["name"] for s in BENCH["per_layer"] if s["unit"] == "count"]
    first_counts = None
    for name in WORKLOAD_NAMES:
        check_metrics(result_of(run_bench(name, 0, 0), f"{name} trace 0"),
                      BENCH["end_to_end"], f"{name} trace 0")
        for seed in (0, 1):
            label = f"{name} trace 1 seed {seed}"
            result = result_of(run_bench(name, seed, 1), label)
            check_metrics(result, BENCH["per_layer"], label)
            values = {c: result["metrics"][c]["value"] for c in counts}
            first_counts = first_counts or values
            if values != first_counts:
                raise AssertionError(f"{label}: counts {values} != "
                                     f"{first_counts}")
        print(f"ok {name}")
    check_bare_directory()
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
