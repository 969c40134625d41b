"""Span recording around calls into the program's public functions.

The tracer swaps module attributes for timing wrappers while it is
installed, so the program itself carries no tracing code.  Spans (name,
start, end, parent, CPU time, an optional count) stay in memory and are
written out once, at the end of the run.
"""
from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass

# (module, attribute, span name, counter over (args, result) or None).
# Every call site in the program reaches these through the module
# attribute, so replacing the attribute times every call.
TRACED = (
    ("starscatter.cli", "load_network", "config.load_network", None),
    ("starscatter.cli", "read_reflectogram_csv", "cli.csv_read", None),
    ("starscatter.scattering", "reflectogram", "scattering.reflectogram",
     None),
    ("starscatter.scattering", "solve_scattering_batch",
     "scattering.solve_batch",
     lambda args, res: len(res)),
    ("starscatter.scattering", "solve_scattering",
     "scattering.solve_scattering", None),
    ("starscatter.jost", "jost_batch", "jost.jost_batch", None),
    ("starscatter.jost", "jost_profile", "jost.jost_profile", None),
    ("starscatter.propagate", "sweep", "propagate.sweep", None),
    ("starscatter.fundamental", "fundamental_at",
     "fundamental.fundamental_at", None),
    ("starscatter.fundamental", "solve_kernel", "fundamental.solve_kernel",
     None),
    ("starscatter.oracle", "oracle_solve", "oracle.oracle_solve", None),
    ("starscatter.inversion", "estimate_taus", "inversion.estimate_taus",
     lambda args, res: (len(args[0]), len(res.poles))),
    ("starscatter.inversion", "estimate_m", "inversion.estimate_m", None),
    ("starscatter.inversion", "detect_poles", "inversion.detect_poles",
     None),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    cpu: float = 0.0  # process CPU seconds, all threads, during the span
    count: object = None

    @property
    def wall(self):
        return self.end - self.start


class Tracer:
    """Collects spans; worker-thread spans hang under the current operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._operation: int | None = None

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        parent = stack[-1].id if stack else self._operation
        with self._lock:
            s = Span(next(self._ids), name, parent, 0.0)
            self.spans.append(s)
        stack.append(s)
        cpu0 = time.process_time()
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.cpu = time.process_time() - cpu0
            stack.pop()

    @contextlib.contextmanager
    def operation(self, name):
        """A top-level span; spans that other threads open attach to it."""
        with self.span(f"op.{name}") as s:
            self._operation = s.id
            try:
                yield s
            finally:
                self._operation = None

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if counter is not None:
                    s.count = counter(args, result)
                return result
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every TRACED attribute for its wrapper; restore on exit."""
        saved = []
        try:
            for mod_name, attr, name, counter in TRACED:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)



def write_spans(spans, path):
    with open(path, "w") as fh:
        json.dump([asdict(s) for s in spans], fh)


def _root(spans_by_id, span):
    while span.parent is not None:
        span = spans_by_id[span.parent]
    return span


def layer_times(spans):
    """Per-layer figures of one round, from the spans recorded in it.

    Each figure is per call of the end-to-end operation the layer serves (a
    round repeats `invert`), and times are busy seconds summed over threads.
    Forward layers count only spans under the forward operation, validate
    layers only spans under validate, so the single-k solves that `validate`
    makes do not leak into the sweep's figures.
    """
    by_id = {s.id: s for s in spans}
    ops, under = {}, {}
    for s in spans:
        if s.name.startswith("op."):
            ops.setdefault(s.name, []).append(s)
        else:
            under.setdefault(_root(by_id, s).name, []).append(s)

    def per_op(op, name, value=Span.wall.fget, parent=None):
        """Sum of value(span) over `name` spans under `op`, per `op` call."""
        got = sum(value(s) for s in under.get(op, []) if s.name == name
                  and (parent is None or by_id[s.parent].name == parent))
        return got / len(ops[op]) if op in ops else 0.0

    fwd, inv, val = "op.forward", "op.invert", "op.validate"
    out = {
        "config.load_network_s": per_op(fwd, "config.load_network")
        + per_op(val, "config.load_network"),
        "jost.jost_batch_s": per_op(fwd, "jost.jost_batch"),
        "propagate.sweep_s": per_op(fwd, "propagate.sweep",
                                    parent="scattering.solve_batch"),
        "scattering.solve_batch_s": per_op(fwd, "scattering.solve_batch"),
        "scattering.reflectogram_serial_s": per_op(
            fwd, "scattering.reflectogram"),
        "scattering.reflectogram_threaded_s": per_op(
            "op.threaded", "scattering.reflectogram"),
        "scattering.reflectogram_threaded_cpu_s": per_op(
            "op.threaded", "scattering.reflectogram", value=lambda s: s.cpu),
        "scattering.frequencies": per_op(
            fwd, "scattering.solve_batch", value=lambda s: s.count),
        "cli.csv_read_s": per_op(inv, "cli.csv_read"),
        "inversion.estimate_m_s": per_op(inv, "inversion.estimate_m"),
        "inversion.detect_poles_s": per_op(inv, "inversion.detect_poles"),
        "inversion.estimate_taus_s": per_op(inv, "inversion.estimate_taus"),
        "inversion.samples": per_op(inv, "inversion.estimate_taus",
                                    value=lambda s: s.count[0]),
        "inversion.poles": per_op(inv, "inversion.estimate_taus",
                                  value=lambda s: s.count[1]),
        "fundamental.fundamental_at_s": per_op(
            val, "fundamental.fundamental_at"),
        "fundamental.solve_kernel_s": per_op(val, "fundamental.solve_kernel"),
        "jost.jost_profile_s": per_op(val, "jost.jost_profile"),
        "oracle.oracle_solve_s": per_op(val, "oracle.oracle_solve"),
    }
    out["scattering.node_solve_s"] = (out["scattering.solve_batch_s"]
                                      - out["jost.jost_batch_s"]
                                      - out["propagate.sweep_s"])
    # forward less its reflectogram and config load: argument handling and
    # the CSV write, on the sweeps, which are the workloads that write one
    refl = out["scattering.reflectogram_serial_s"]
    out["cli.csv_write_s"] = (
        statistics.mean(s.wall for s in ops[fwd]) - refl
        - per_op(fwd, "config.load_network")) if refl else 0.0
    single = [s.wall for s in under.get(val, [])
              if s.name == "scattering.solve_scattering"]
    out["scattering.solve_scattering_s"] = (statistics.median(single)
                                            if single else 0.0)
    return out
