"""Span tracer for the benchmark: times the calls into rsflow's layers.

While :meth:`Tracer.installed` is active, the public functions and
methods listed in :data:`TRACED` are replaced, in every ``rsflow`` module
that binds them, by wrappers that record one span per call: name, start,
end and the index of the enclosing span.  Spans stay in memory.  Outside
that block nothing is wrapped, so an untraced pass runs the package as
shipped and tracing costs nothing when it is off.

A span name starts with its layer (the rsflow module), e.g.
``solver.step_rk4`` or ``fields.Interpolator.__call__``; the benchmark
adds its own spans (``pass.<workload>``, ``cli.simulate``, ...) with
:meth:`Tracer.span`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# layer -> public functions ("name") and methods ("Class.method") to wrap
TRACED = {
    "solver": ("run_simulation", "init_state", "step_rk4", "rhs",
               "diagnostics"),
    "fields": ("partial_derivative", "Interpolator.__init__",
               "Interpolator.__call__"),
    "exterior": ("exterior_derivative", "wedge", "interior_product",
                 "lie_derivative_cartan", "lie_derivative_components",
                 "pullback"),
    "rsf": ("component_vorticities", "check_rsf"),
    "trig": ("TrigPoly.sample",),
    "rsff": ("write_field", "read_field"),
    "verify": ("kinematic_frozen_case", "advect_flowmap", "pullback_error",
               "VelocityHistory.velocity_at", "lemma1_check"),
}


class Tracer:
    """Collects nested spans as ``[name, start, end, parent_index]``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    @contextmanager
    def installed(self, package: str = "rsflow"):
        """Wrap every entry of :data:`TRACED`; restore the originals on exit."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == package or k.startswith(package + ".")]
        patches = []  # (owner, attribute, original, span name)
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"{package}.{layer}")
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    owner = getattr(mod, cls_name)
                    patches.append((owner, meth, owner.__dict__[meth],
                                    f"{layer}.{name}"))
                    continue
                orig = getattr(mod, name)
                for m in modules:
                    patches.extend((m, attr, orig, f"{layer}.{name}")
                                   for attr, val in list(vars(m).items())
                                   if val is orig)
        try:
            for owner, attr, orig, span_name in patches:
                setattr(owner, attr, self._wrap(span_name, orig))
            yield self
        finally:
            for owner, attr, orig, _ in patches:
                setattr(owner, attr, orig)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def layer_self_seconds(self) -> dict:
        """Self time summed per layer (the first part of the span name)."""
        out: dict = {}
        for name, row in self.summary().items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + row["self_s"]
        return out

    def coverage(self, root: int = 0) -> float:
        """Share of the root span's wall time spent inside its child spans.

        This is the summed self time of every span below the root divided
        by the root's duration.
        """
        _, start, end, _ = self.spans[root]
        inside = sum(e - s for _, s, e, p in self.spans if p == root)
        return inside / (end - start)
