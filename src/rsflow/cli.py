"""Command-line entry point.

Subcommands: plan, check-rsf, simulate, verify-frozen, verify-identities,
canonical, slice-image.  Exit code 0 means every requested threshold was
met; anything else is a failure (CI-friendly).  Unreadable or malformed
input ends with exit code 2 and one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import rsff
from .rsf import canonical_antisymmetric, check_rsf, decomposition_plan, zero_pattern
from .solver import parse_config, run_simulation
from .verify import (frozen_convergence_study, frozen_in_errors, identity_suite,
                     lemma1_check, VelocityHistory)


def _cmd_plan(args) -> int:
    plan = decomposition_plan(args.d)
    if args.json:
        print(plan.to_json())
    else:
        parts = []
        for i in range(plan.m):
            axes = plan.component_axes(i)
            parts.append("(" + ",".join(f"u{a}" for a in axes) + ")")
        print(f"d={plan.d} M={plan.m}: " + "|".join(parts))
    return 0


def _cmd_check_rsf(args) -> int:
    vf, _ = rsff.read_field(args.field)
    pattern = zero_pattern(vf.grid.d)
    if vf.ncomp != pattern.d:
        raise ValueError(f"{args.field}: needs {pattern.d} components on its "
                         f"{pattern.d}D grid, got {vf.ncomp}")
    violation = check_rsf(vf, pattern)
    print(f"rsf_violation={violation:.6e}")
    return 0 if violation <= args.threshold else 1


def _cmd_simulate(args) -> int:
    cfg = parse_config(Path(args.config).read_text())
    try:
        result = run_simulation(cfg, outdir=args.out, keep_history=False)
    except RuntimeError as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return 1
    last = result.diagnostics[-1]
    print(f"done: t={last['time']:.4g} energy={last['energy']:.6g} "
          f"mass={last['mass']:.6g} rsf_dev={last['rsf_dev']:.3e}")
    return 0


def _cmd_verify_frozen(args) -> int:
    if args.snapshots:
        history = VelocityHistory.from_rsff_dir(args.snapshots)
        errs = frozen_in_errors(history, history)
        health = errs.pop("flowmap")
        out = {"scenario": "snapshots", "errors": errs, "flowmap": health}
        ok = all(e["l2_normalized"] <= args.threshold for e in errs.values())
    else:
        report = frozen_convergence_study(tuple(args.resolutions))
        out = asdict(report)
        ok = (report.orders["omega_h"] >= args.min_order
              and report.orders["omega_rest"] >= args.min_order)
    text = json.dumps(out, indent=2)
    if args.report:
        Path(args.report).write_text(text)
    print(text)
    return 0 if ok else 1


def _cmd_verify_identities(args) -> int:
    worst = identity_suite(dims=args.d, seeds=args.seeds)
    if args.inject_violation:
        worst["lemma1_negative_control"] = lemma1_check(4, 2, 0, violate=True)
    ok = True
    for name, val in worst.items():
        if name.endswith("negative_control"):
            passed = val > 1e-3
        else:
            passed = val <= args.tol
        ok = ok and passed
        print(f"{name}: {val:.3e} [{'PASS' if passed else 'FAIL'}]")
    return 0 if ok else 1


def _cmd_canonical(args) -> int:
    if args.matrix:
        try:
            a = np.asarray(json.loads(Path(args.matrix).read_text()), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{args.matrix}: not a matrix of numbers: {exc}") from None
    else:
        d = args.d
        if d < 1:
            raise ValueError(f"--d must be >= 1, got {d}")
        rng = np.random.default_rng(args.seed)
        raw = rng.normal(size=(d, d))
        a = 0.5 * (raw - raw.T)
    rot = canonical_antisymmetric(a)
    print(rot.to_json())
    return 0


PALETTE = [(33, 102, 172), (146, 197, 222), (247, 247, 247),
           (244, 165, 130), (178, 24, 43)]


def banded_rgb(values: np.ndarray, levels=None) -> np.ndarray:
    """Few-level color coding of a 2D slice (symmetric bands by default)."""
    vmax = float(np.max(np.abs(values)))
    if levels is None:
        if vmax == 0:
            levels = [0.0]
        else:
            levels = list(np.linspace(-vmax, vmax, len(PALETTE) - 1))
    idx = np.searchsorted(np.asarray(levels, dtype=float), values)
    nb = len(levels) + 1
    palette = np.asarray(
        [PALETTE[int(round(i * (len(PALETTE) - 1) / max(nb - 1, 1)))]
         for i in range(nb)], dtype=np.uint8)
    return palette[idx]


def write_ppm(path, rgb: np.ndarray) -> None:
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(np.ascontiguousarray(rgb, dtype=np.uint8).tobytes())


def _parse_levels(text: str) -> list:
    try:
        levels = [float(x) for x in text.split(",")]
    except ValueError:
        levels = None
    if levels is None or not (all(math.isfinite(x) for x in levels)
                              and all(a < b for a, b in zip(levels, levels[1:]))):
        raise ValueError(f"--levels must be finite and strictly increasing, "
                         f"got {text!r}")
    return levels


def _cmd_slice_image(args) -> int:
    levels = _parse_levels(args.levels) if args.levels else None
    vf, _ = rsff.read_field(args.snapshot)
    if vf.grid.d != 3:
        raise ValueError(f"{args.snapshot}: slice-image needs a 3D field, "
                         f"got {vf.grid.d}D")
    comp_index = {"u1": 0, "u2": 1, "u3": 2}[args.component]
    if comp_index >= vf.ncomp:
        raise ValueError(f"{args.snapshot}: no component {args.component}, "
                         f"got {vf.ncomp} components")
    vals = vf.components[comp_index].values
    if not 0 <= args.axis3 < vals.shape[2]:
        raise ValueError(f"slice index {args.axis3} out of range "
                         f"0..{vals.shape[2] - 1}")
    write_ppm(args.out, banded_rgb(vals[:, :, args.axis3], levels))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rsflow")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("plan", help="print the invariant decomposition plan")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_plan)

    sp = sub.add_parser("check-rsf", help="zero-pattern violation of a field file")
    sp.add_argument("--field", required=True)
    sp.add_argument("--threshold", type=float, default=1e-10)
    sp.set_defaults(fn=_cmd_check_rsf)

    sp = sub.add_parser("simulate", help="run the solver from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("verify-frozen", help="pullback-conservation campaign")
    sp.add_argument("--snapshots")
    sp.add_argument("--resolutions", type=int, nargs="+", default=[32, 64, 128])
    sp.add_argument("--report")
    sp.add_argument("--min-order", type=float, default=2.5)
    sp.add_argument("--threshold", type=float, default=1e-3)
    sp.set_defaults(fn=_cmd_verify_frozen)

    sp = sub.add_parser("verify-identities", help="closed-form identity suite")
    sp.add_argument("--d", type=int, nargs="+", default=list(range(3, 9)))
    sp.add_argument("--seeds", type=int, default=20)
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--inject-violation", action="store_true")
    sp.set_defaults(fn=_cmd_verify_identities)

    sp = sub.add_parser("canonical", help="rotation-plane form of an antisymmetric matrix")
    sp.add_argument("--matrix", help="JSON file with a square matrix")
    sp.add_argument("--d", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_canonical)

    sp = sub.add_parser("slice-image", help="banded PPM of a snapshot slice")
    sp.add_argument("--snapshot", required=True)
    sp.add_argument("--component", choices=["u1", "u2", "u3"], required=True)
    sp.add_argument("--axis3", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--levels")
    sp.set_defaults(fn=_cmd_slice_image)
    return p


# pass/fail bounds: argparse's float() also accepts nan and inf
_BOUND_OPTIONS = ("threshold", "min_order", "tol")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for dest in _BOUND_OPTIONS:
            value = getattr(args, dest, None)
            if value is not None and not 0.0 <= value < math.inf:
                raise ValueError(f"--{dest.replace('_', '-')} must be finite "
                                 f"and >= 0, got {value}")
        return args.fn(args)
    except (OSError, ValueError) as exc:  # unreadable or malformed input
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
