"""Spans around cbcontrol's public functions, recorded from outside.

``Tracer.install`` wraps each target function and puts the wrapper in
place of the original in every cbcontrol module namespace that holds it
(``analysis`` holds its own ``numeric_rank``, ``design`` holds
``simulate`` and ``min_norm_solve``, ``cli`` holds ``lift``, ...), and
wraps ``numpy.linalg.{eigvals, svd, matrix_power}`` as the numpy
boundary. No code under ``src/`` changes. Spans (name, start, end,
parent span, op id, count) stay in memory while the workload runs and
are written out at the end; ``calls`` and ``self_ms`` come from them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy.linalg

# (layer, function) -> what the per-layer metrics report for it
TARGETS = {
    ("analysis", "pbh_controllable"): ("calls", "self_ms"),
    ("analysis", "spectral_report"): ("self_ms",),
    ("analysis", "select_h"): ("self_ms",),
    ("analysis", "unit_ratio_orders"): ("self_ms",),
    ("analysis", "hb_invertible"): ("self_ms",),
    ("analysis", "check_nonrepetitive_sufficient"): ("self_ms",),
    ("analysis", "check_repetitive_sufficient"): ("self_ms",),
    ("linalg", "eigvals"): ("calls", "self_ms"),
    ("linalg", "svd"): ("calls", "self_ms"),
    ("linalg", "matrix_power"): ("calls", "self_ms"),
    ("lifting", "lift"): ("calls", "self_ms"),
    ("lifting", "reachability_matrix"): ("calls", "self_ms"),
    ("lifting", "h_sum"): ("calls", "self_ms"),
    ("numeric", "numeric_rank"): ("calls", "self_ms"),
    ("numeric", "min_norm_solve"): ("calls", "self_ms"),
    ("design", "design_nonrepetitive"): ("calls", "self_ms"),
    ("design", "design_repetitive"): ("calls", "self_ms"),
    ("design", "verify_plan"): ("calls", "self_ms"),
    ("design", "rollout"): ("calls", "self_ms"),
    ("charge_balance", "build_scheme"): ("calls", "self_ms"),
    ("charge_balance", "unpack"): ("calls", "self_ms"),
    ("system", "simulate"): ("calls", "steps", "self_ms"),
    ("problem_io", "load_problem"): ("self_ms",),
    ("problem_io", "write_csv"): ("bytes", "self_ms"),
    ("problem_io", "read_inputs_csv"): ("rows", "self_ms"),
    ("cli", "cmd_analyze"): ("self_ms",),
    ("cli", "cmd_design"): ("self_ms",),
    ("cli", "cmd_sweep_h"): ("self_ms",),
    ("cli", "cmd_simulate"): ("self_ms",),
}
UNITS = {"calls": "calls/op", "self_ms": "ms/op", "steps": "steps/op", "bytes": "bytes/op", "rows": "rows/op"}
OVERHEAD = ("trace.overhead_ms", "ms")


def metric_names() -> list:
    """Every per-layer metric as (name, unit), in a fixed order."""
    names = [
        (f"{layer}.{func}.{kind}", UNITS[kind])
        for (layer, func), kinds in TARGETS.items()
        for kind in kinds
    ]
    return names + [OVERHEAD]


# what a span counts besides its call, read from the call's arguments and result
COUNTERS = {
    "system.simulate": lambda args, result: result.horizon,
    "problem_io.write_csv": lambda args, result: os.path.getsize(args[0]),
    "problem_io.read_inputs_csv": lambda args, result: len(result),
}


class Tracer:
    """Collects spans for calls made while an op is active."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, count, paused]
        self.stack = []
        self.op = None
        self._restore = []

    def _wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op, None, 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if counter is not None:
                span[5] = counter(args, result)
            return result

        return traced

    def install(self):
        """Replace every target in every namespace that holds it."""
        modules = [mod for key, mod in sys.modules.items() if key == "cbcontrol" or key.startswith("cbcontrol.")]
        for layer, func in TARGETS:
            owner = numpy.linalg if layer == "linalg" else sys.modules.get(f"cbcontrol.{layer}")
            original = getattr(owner, func, None)
            if original is None:
                continue  # the function is gone; its metrics read 0
            wrapper = self._wrap(f"{layer}.{func}", original)
            for mod in [owner] + modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def begin(self, op_id):
        self.op = op_id
        self.stack.clear()

    def end(self):
        self.op = None

    def pause(self, seconds: float):
        """Take time spent outside the program out of the innermost span."""
        if self.op is not None and self.stack:
            self.spans[self.stack[-1]][6] += seconds

    def metrics(self, factors: list) -> dict:
        """Per-op means of calls, self time and counts for every target.

        ``factors[op]`` scales the times of op ``op`` to nominal host speed.
        """
        ops = len(factors)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for k, (name, start, end, _, op, count, paused) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "self_ms": 0.0, "count": 0})
            entry["calls"] += 1
            entry["self_ms"] += (end - start - child_time[k] - paused) * 1e3 * factors[op]
            entry["count"] += count or 0
        values = {}
        for (layer, func), kinds in TARGETS.items():
            entry = totals.get(f"{layer}.{func}", {"calls": 0, "self_ms": 0.0, "count": 0})
            for kind in kinds:
                value = entry[kind] if kind in ("calls", "self_ms") else entry["count"]
                values[f"{layer}.{func}.{kind}"] = value / ops
        return values

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, count, paused in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "count": count, "paused": paused}) + "\n")
