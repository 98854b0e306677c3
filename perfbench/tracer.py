"""Span tracing of ``cwsa_eval`` from outside the package.

    python perfbench/tracer.py SPANS_JSON cli ARGS...       # cwsa_eval.cli.main(ARGS)
    python perfbench/tracer.py SPANS_JSON script PATH ARGS...

The launcher imports the package, replaces each function in ``TARGETS``
by a wrapper wherever a ``cwsa_eval`` module binds it (so
``cwsa_eval.cli.ingest``, ``cwsa_eval.sweep.point_metrics`` and the
package-level names all see the wrapper), wraps ``EvaluationSet.__init__``
and counts NumPy sort and bincount calls made by the package.  It then
runs the command inside a root span named ``cli.main`` and writes the
spans and counts to ``SPANS_JSON`` when the command ends.  ``src/`` is
not modified.

A span is (name, start, end, parent, thread id).  Parent stacks are
thread-local; work submitted to the sweep's thread pool inherits the span
that submitted it, so pool threads attribute to the right ``sweep``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import runpy
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List

import numpy

# (module, attribute, span name).  Two functions may share a span name.
TARGETS = (
    ("cwsa_eval.dataio", "ingest", "dataio.ingest"),
    ("cwsa_eval.dataio", "file_digest", "dataio.file_digest"),
    ("cwsa_eval.dataio", "point_report_doc", "dataio.report_doc"),
    ("cwsa_eval.dataio", "sweep_report_doc", "dataio.report_doc"),
    ("cwsa_eval.dataio", "write_report", "dataio.write_report"),
    ("cwsa_eval.dataio", "write_predictions_csv", "dataio.write_predictions_csv"),
    ("cwsa_eval.kernels", "point_accumulate", "kernels.point_accumulate"),
    ("cwsa_eval.kernels", "credit_accumulate", "kernels.credit_accumulate"),
    ("cwsa_eval.metrics", "point_metrics", "metrics.point_metrics"),
    ("cwsa_eval.metrics", "cwsa_generalized", "metrics.cwsa_generalized"),
    ("cwsa_eval.metrics", "cwsa_gradient", "metrics.cwsa_gradient"),
    ("cwsa_eval.synthgen", "generate", "synthgen.generate"),
    ("cwsa_eval.baselines", "aurc", "baselines.aurc"),
    ("cwsa_eval.baselines", "eaurc", "baselines.eaurc"),
    ("cwsa_eval.baselines", "risk_coverage_points", "baselines.risk_coverage_points"),
    ("cwsa_eval.baselines", "ece", "baselines.ece"),
    ("cwsa_eval.baselines", "mce", "baselines.mce"),
    ("cwsa_eval.baselines", "brier", "baselines.brier"),
    ("cwsa_eval.sweep", "sweep", "sweep.sweep"),
    ("cwsa_eval.sweep", "rank", "sweep.rank"),
)
ROOT_SPAN = "cli.main"

# Counts taken at the wrappers: span name -> (count name, amount of a result).
RESULT_COUNTS = {
    "dataio.ingest": ("dataio.ingest_records", len),
    "kernels.point_accumulate": ("kernels.point_accumulate_calls", lambda _: 1),
    "metrics.point_metrics": ("metrics.point_metrics_calls", lambda _: 1),
    "sweep.sweep": ("sweep.thresholds", lambda report: len(report.grid)),
}
# NumPy functions whose calls from the package are counted.
NUMPY_COUNTS = {
    "argsort": "baselines.sort_calls",
    "sort": "baselines.sort_calls",
    "lexsort": "baselines.sort_calls",
    "bincount": "baselines.bin_calls",
}


class Tracer:
    """Spans and counts of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def adopt(self, parent) -> None:
        """Make ``parent`` the current span of this thread (pool workers)."""
        self._local.stack = [] if parent is None else [parent]

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append([span_id, name, start, end, parent, threading.get_ident()])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _wrap(tracer: Tracer, name: str, fn):
    counted = RESULT_COUNTS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if counted:
            tracer.count(counted[0], counted[1](result))
        return result

    return wrapper


class _CountingNumpy:
    """Stands in for ``numpy`` inside the package's modules."""

    def __init__(self, tracer: Tracer) -> None:
        for attr, count_name in NUMPY_COUNTS.items():
            setattr(self, attr, self._counted(tracer, count_name, getattr(numpy, attr)))

    @staticmethod
    def _counted(tracer, count_name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(count_name)
            return fn(*args, **kwargs)

        return wrapper

    def __getattr__(self, attr):
        # Kept on the instance, so hot loops (``np.isnan`` per row in the
        # CSV writer) pay this lookup once, not on every call.
        value = getattr(numpy, attr)
        setattr(self, attr, value)
        return value


def install(tracer: Tracer) -> None:
    """Route the package's calls through ``tracer`` for the rest of the process."""
    import cwsa_eval  # noqa: F401  (loads every submodule)

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "cwsa_eval" or name.startswith("cwsa_eval."))]
    for module_name, attr, span_name in TARGETS:
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            continue
        wrapper = _wrap(tracer, span_name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    core = importlib.import_module("cwsa_eval.core")
    init = core.EvaluationSet.__init__
    core.EvaluationSet.__init__ = functools.wraps(init)(
        lambda self, *a, **k: tracer.call("core.evaluation_set", init, self, *a, **k)
    )

    counting = _CountingNumpy(tracer)
    for module in modules:
        if vars(module).get("np") is numpy:
            module.np = counting

    sweep_module = importlib.import_module("cwsa_eval.sweep")
    pool = getattr(sweep_module, "ThreadPoolExecutor", None)
    if pool is not None:
        class TracedPool(pool):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run():
                    tracer.adopt(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer.adopt(None)

                return super().submit(run)

        sweep_module.ThreadPoolExecutor = TracedPool


def self_times(spans: List[list]) -> Dict[str, float]:
    """Seconds per span name: each span's duration minus the union of the
    intervals its children cover (children may overlap when run by a pool)."""
    children = defaultdict(list)
    for span_id, _, start, end, parent, _ in spans:
        children[parent].append((start, end))
    totals: Dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _, _ in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] += (end - start - covered) / 1e9
    return dict(totals)


def root_seconds(spans: List[list]) -> float:
    return sum(end - start for _, name, start, end, parent, _ in spans
               if name == ROOT_SPAN and parent is None) / 1e9


def main(argv: List[str]) -> int:
    spans_path, mode, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        if mode == "cli":
            import cwsa_eval.cli

            return tracer.call(ROOT_SPAN, cwsa_eval.cli.main, rest)
        sys.argv = rest
        tracer.call(ROOT_SPAN, runpy.run_path, rest[0], run_name="__main__")
        return 0
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
