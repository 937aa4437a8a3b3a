"""Span recording around the public calls into each qkdkit layer.

The benchmark installs wrappers from outside the program: every public
function of the traced modules is replaced, in every qkdkit module that
holds a reference to it, by a wrapper that records a span ``(name, start,
end, parent)``.  Replacing the name where the caller looks it up matters:
``keyrate`` imports ``channel`` functions by name, and ``cli`` imports
``qstate`` functions by name, so wrapping only the defining module would
leave those boundaries unrecorded.  SVD calls are counted against the layer
of the innermost open span.  Spans stay in memory until :meth:`write`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from collections import Counter

import numpy.linalg

LAYERS = ("cli", "keyrate", "channel", "estimator", "montecarlo", "qstate")
PHASE_ERROR_FUNCTIONS = ("phase_error_three_state", "phase_error_virtual", "mdi_phase_error")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent index]
        self.stack: list[int] = []
        self.svd_calls: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"qkdkit.{name}") for name in LAYERS}
        holders = [importlib.import_module("qkdkit"), *modules.values()]
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", layer, obj)
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if id(obj) in wrappers:
                    self._patch(holder, attr, wrappers[id(obj)])
        self._patch(numpy.linalg, "svd", self._count_svd(numpy.linalg.svd))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _patch(self, holder, attr: str, replacement) -> None:
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, replacement)

    def _wrap(self, name: str, layer: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name_id, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def _count_svd(self, fn):
        spans, stack, layer_of, counts = self.spans, self.stack, self.layer_of, self.svd_calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[layer_of[spans[stack[-1]][0]] if stack else "bench"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- analysis ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self time and boundary calls, per-function totals.

        Self time is a span's duration minus the time its child spans cover
        (children of one span never overlap: one thread).  A boundary call
        is a span whose parent lies in another layer (or is the benchmark).
        """
        child_time = [0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_ns: Counter[str] = Counter()
        boundary: Counter[str] = Counter()
        fn_ns: Counter[str] = Counter()
        fn_calls: Counter[str] = Counter()
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            layer = self.layer_of[name_id]
            self_ns[layer] += end - start - child_time[i]
            fn_ns[self.names[name_id]] += end - start
            fn_calls[self.names[name_id]] += 1
            if parent < 0 or self.layer_of[self.spans[parent][0]] != layer:
                boundary[layer] += 1
        return {"self_ns": self_ns, "boundary_calls": boundary, "fn_ns": fn_ns,
                "fn_calls": fn_calls, "svd_calls": self.svd_calls, "spans": len(self.spans)}

    def write(self, path: str) -> None:
        """Spans as gzipped tab-separated ``index name start_ns end_ns parent``."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as handle:
            handle.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name_id, start, end, parent) in enumerate(self.spans):
                handle.write(f"{i}\t{self.names[name_id]}\t{start}\t{end}\t{parent}\n")


def layer_metrics(summary: dict, calls: int, units: int, pulses: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json from a traced run's summary.

    ``*.self_s`` are self seconds per CLI call; ``*_us`` are mean inclusive
    durations per call of that function; ``*_per_point`` / ``*_per_table``
    divide by the workload's work units; a layer never called reads 0.
    """
    self_ns, fn_ns, fn_calls = summary["self_ns"], summary["fn_ns"], summary["fn_calls"]

    def mean_us(*names: str) -> float:
        n = sum(fn_calls[name] for name in names)
        return sum(fn_ns[name] for name in names) / n / 1e3 if n else 0.0

    def self_s(layer: str) -> float:
        return self_ns[layer] / calls / 1e9

    return {
        "cli.self_ms_per_call": (self_ns["cli"] / calls / 1e6, "ms"),
        "keyrate.self_s": (self_s("keyrate"), "s"),
        "keyrate.optimize_alpha_us": (mean_us("keyrate.optimize_alpha"), "us"),
        "channel.calls_per_point": (summary["boundary_calls"]["channel"] / units, "count"),
        "channel.self_s": (self_s("channel"), "s"),
        "estimator.svd_calls_per_table": (summary["svd_calls"]["estimator"] / units, "count"),
        "estimator.solve_functional_us": (mean_us("estimator.solve_functional"), "us"),
        "estimator.mdi_solve_us": (mean_us("estimator.mdi_solve"), "us"),
        "estimator.phase_error_us": (
            mean_us(*(f"estimator.{name}" for name in PHASE_ERROR_FUNCTIONS)), "us"),
        "estimator.self_s": (self_s("estimator"), "s"),
        "qstate.calls_per_table": (summary["boundary_calls"]["qstate"] / units, "count"),
        "qstate.self_s": (self_s("qstate"), "s"),
        "montecarlo.ns_per_pulse": (
            fn_ns["montecarlo.run_protocol"] / pulses if pulses else 0.0, "ns"),
        "montecarlo.self_s": (self_s("montecarlo"), "s"),
        "montecarlo.run_protocol_us": (mean_us("montecarlo.run_protocol"), "us"),
        "montecarlo.fiber_experiment_us": (mean_us("montecarlo.fiber_experiment"), "us"),
        "montecarlo.estimate_from_trial_us": (mean_us("montecarlo.estimate_from_trial"), "us"),
    }


def layer_table(summary: dict, calls: int) -> list[dict]:
    """Per-layer rows: boundary calls, self time per CLI call, share of self time."""
    total = sum(summary["self_ns"].values()) or 1
    rows = []
    for layer in LAYERS:
        ns = summary["self_ns"][layer]
        rows.append({"layer": layer, "boundary_calls_per_call": summary["boundary_calls"][layer] / calls,
                     "self_ms_per_call": ns / calls / 1e6, "self_share": ns / total,
                     "svd_calls_per_call": summary["svd_calls"][layer] / calls})
    return rows
