"""Spans around calls into the package's public functions, recorded from outside.

:func:`install` replaces module attributes (and the ``__init__`` of the
instance classes) with timing wrappers. It must run before
``acceptmax.cli`` is imported, because the CLI's selector tables bind the
mechanism functions at import time. Hot inner predicates (``accepts``,
``adc_accepts``) and per-agent helpers are deliberately left alone.

Spans are kept in memory as ``[name, start, end, parent, op]`` records and
reduced to per-layer self times per pass; a layer's self time is the
duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

from .gen import BOUNDS_CLASSES

# (module, public name or "Class.__init__") -> per-layer metric.
TARGETS = (
    ("cli", "main", "cli.self_s"),
    ("serialize", "load_instance", "serialize.parse_s"),
    ("serialize", "dumps", "serialize.emit_s"),
    ("serialize", "solve_report_to_dict", "serialize.emit_s"),
    ("serialize", "oracle_result_to_dict", "serialize.emit_s"),
    ("serialize", "trace_to_dict", "serialize.emit_s"),
    ("serialize", "one_step_to_dict", "serialize.emit_s"),
    ("serialize", "bounds_report_to_dict", "serialize.emit_s"),
    ("core", "GenericInstance.__init__", "core.validate_s"),
    ("core", "oracle_max_accept", "core.oracle_s"),
    ("core", "make_report", "core.report_s"),
    ("core", "max_accept_absolute_disjunctivists", "core.solve_s"),
    ("core", "max_accept_all_types", "core.solve_s"),
    ("core", "max_accept_consequentialists", "core.solve_s"),
    ("core", "max_accept_absolute_proceduralists", "core.solve_s"),
    ("core", "max_accept_absolute_conjunctivists", "core.solve_s"),
    ("adc", "AdcInstance.__init__", "adc.validate_s"),
    ("adc", "adc_to_generic", "adc.bridge_s"),
    ("adc", "adc_consequentialists", "adc.solve_s"),
    ("adc", "adc_absolute_disjunctivists", "adc.solve_s"),
    ("adc", "adc_ii_disjunctivists", "adc.solve_s"),
    ("adc", "adc_ii_conjunctivists", "adc.solve_s"),
    ("amendment", "amend_iterative", "amendment.iterative_s"),
    ("amendment", "amend_one_step", "amendment.one_step_s"),
    ("bounds", "worst_case_rate", "bounds.row_s"),
)

TIME_METRICS = sorted({metric for _m, _n, metric in TARGETS} - {"bounds.row_s"}) + [
    f"bounds.row_s.{c}" for c in BOUNDS_CLASSES
]
COUNT_METRICS = {
    "cli.calls": "count",
    "serialize.bytes_in": "bytes",
    "serialize.bytes_out": "bytes",
    "amendment.steps": "count",
    "bounds.rows": "count",
}


class Tracer:
    """In-memory span recorder; ``recording`` switches recording off per pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.counts = {}
        self.recording = False
        self.op = -1
        self.skipped = []

    def count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, time.perf_counter(), None, parent, tracer.op]
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if on_result is not None:
                on_result(tracer, span, args, kwargs, result)
            return result

        return traced


def _bytes_in(tracer, _span, args, kwargs, _result):
    tracer.count("serialize.bytes_in", os.path.getsize(kwargs.get("path", args[0])))


def _bytes_out(tracer, _span, _args, _kwargs, result):
    tracer.count("serialize.bytes_out", len(result) + 1)  # print adds a newline


def _calls(tracer, _span, _args, _kwargs, _result):
    tracer.count("cli.calls", 1)


def _steps(tracer, _span, _args, _kwargs, result):
    tracer.count("amendment.steps", len(result.steps))


def _row(tracer, span, args, kwargs, _result):
    class_id = kwargs.get("class_id", args[0] if args else None)
    span[0] = f"bounds.row_s.{class_id}"
    tracer.count("bounds.rows", 1)


HOOKS = {
    ("cli", "main"): _calls,
    ("serialize", "load_instance"): _bytes_in,
    ("serialize", "dumps"): _bytes_out,
    ("amendment", "amend_iterative"): _steps,
    ("bounds", "worst_case_rate"): _row,
}


def install(tracer):
    """Wrap every target that exists and return ``acceptmax.cli``.

    ``cli`` is imported last, so that its selector tables bind the wrapped
    callables. Targets that a refactor removed are listed in
    ``tracer.skipped`` instead of failing the run.
    """
    modules = {}
    for mod, attr, metric in sorted(TARGETS, key=lambda target: target[0] == "cli"):
        if mod not in modules:
            try:
                modules[mod] = importlib.import_module(f"acceptmax.{mod}")
            except ModuleNotFoundError:
                modules[mod] = None
        if modules[mod] is None:
            tracer.skipped.append(f"{mod}.{attr}")
        else:
            _install_one(tracer, modules[mod], mod, attr, metric)
    return importlib.import_module("acceptmax.cli")


def _install_one(tracer, module, mod, attr, metric):
    hook = HOOKS.get((mod, attr))
    if attr.endswith(".__init__"):
        cls = getattr(module, attr.split(".")[0], None)
        if not isinstance(cls, type):
            tracer.skipped.append(f"{mod}.{attr}")
            return
        cls.__init__ = tracer.wrap(metric, cls.__init__, hook)
        return
    fn = getattr(module, attr, None)
    if not callable(fn):
        tracer.skipped.append(f"{mod}.{attr}")
        return
    setattr(module, attr, tracer.wrap(metric, fn, hook))


def self_times(spans):
    """Sum of self time per span name, plus the total time of root spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals, roots = {}, 0.0
    for i, (name, start, end, parent, _op) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
        if parent < 0:
            roots += end - start
    return totals, roots
