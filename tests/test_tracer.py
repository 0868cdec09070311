"""The benchmark's span tracer still finds every rsflow name it wraps."""

import importlib
import importlib.util
from pathlib import Path

from rsflow import solver

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(layer, name):
    owner = importlib.import_module(f"rsflow.{layer}")
    for part in name.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_installs_on_every_traced_name_and_restores_it():
    tracer = _tracer_module()
    names = [(layer, name) for layer, names in tracer.TRACED.items()
             for name in names]
    before = [_lookup(*key) for key in names]
    with tracer.Tracer().installed() as t:
        assert all(_lookup(*key) is not orig
                   for key, orig in zip(names, before))
        solver.init_state(solver.SolverConfig(mode="kinematic_tg",
                                              dims=(8, 8, 8)))
    assert [_lookup(*key) for key in names] == before
    spans = {name for name, *_ in t.spans}
    assert {"solver.init_state", "trig.TrigPoly.sample"} <= spans
