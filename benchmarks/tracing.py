"""In-process tracing of the pgbm layers.

The traced run calls ``pgbm.cli.main`` with the same argv as the
untraced subprocess commands, after replacing selected public functions
with timing wrappers. A wrapper is installed under every module
attribute and module-level dict entry that holds the original function
(for example ``pgbm.boost.grow_tree`` and ``pgbm.tree.grow_tree``, or the
``cmd_*`` handlers in ``pgbm.cli._HANDLERS``), so each call is seen
whichever name it is looked up through.

Spans (name, start, end, parent) are kept in memory. Functions called
once per row are not spans: their calls and summed time accumulate in a
counter and count as covered time of the enclosing span. Work counts are
taken from arguments and return values only.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

Counts = Callable[[dict, object], dict[str, float]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    covered: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it that its direct child
    spans cover, and minus per-row counter time recorded inside it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, [])):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered - sum(span.covered.values()))
    return result


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, list[float]] = {}
        self._stack: list[int] = []

    def span(self, name: str, fn: Callable, counts: Counts | None = None) -> Callable:
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, perf_counter(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = perf_counter()
            if counts is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for key, value in counts(bound, result).items():
                    span.counts[key] = span.counts.get(key, 0.0) + value
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        totals = self.counters.setdefault(name, [0, 0.0])

        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                totals[0] += 1
                totals[1] += elapsed
                if self._stack:
                    covered = self.spans[self._stack[-1]].covered
                    covered[name] = covered.get(name, 0.0) + elapsed

        return counted


def _file_bytes(path) -> float:
    return float(os.path.getsize(path))


# (layer.function, kind, counts). Spans use the counts to derive work
# metrics; "counter" marks functions that run once per row.
TARGETS: list[tuple[str, str, Counts | None]] = [
    ("data.load_csv", "span", lambda a, r: {"rows": r.n}),
    ("data.compute_bin_edges", "span", None),
    ("data.apply_bins", "span", lambda a, r: {"cells": r.bins.size}),
    ("tree.build_histogram", "span",
     lambda a, r: {"cells": len(a["indices"]) * len(a["features"])}),
    ("tree.subtract_histogram", "span", None),
    ("tree.find_best_split", "span",
     lambda a, r: {"candidates": a["hist"].g.size}),
    ("tree.leaf_stats", "span", None),
    ("tree.grow_tree", "span", lambda a, r: {"splits": len(r.nodes)}),
    ("tree.route_many", "span", lambda a, r: {"rows": a["bins"].shape[0]}),
    ("loss.mse_gradhess", "span", None),
    ("loss.hier_wmse_gradhess", "span", None),
    ("boost.train", "span", None),
    ("boost.predict_moments", "span", None),
    ("boost.tree_contributions", "span", None),
    ("boost.accumulate_moments", "span", None),
    ("dist.sample", "span", lambda a, r: {
        "draws": r.samples.size, "rows": r.samples.shape[1],
        "fallback_rows": r.fallback_rows, "family." + a["spec"].family: 1.0}),
    ("dist.match_params", "counter", None),
    ("metrics.crps_empirical_rows", "span",
     lambda a, r: {"rows": r.shape[0]}),
    ("metrics.crps_normal", "span", None),
    ("metrics.hierarchical_report", "span", None),
    ("model_io.save", "span", lambda a, r: {"bytes": _file_bytes(a["path"])}),
    ("model_io.load", "span", None),
    ("cli.cmd_train", "span", None),
    ("cli.cmd_predict", "span", lambda a, r: {"out_bytes": _file_bytes(a["args"].out)}),
    ("cli.cmd_evaluate", "span", None),
    ("cli.cmd_sweep", "span", None),
]


class Instrumented:
    """Context manager that installs the wrappers into the loaded pgbm
    modules and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "pgbm" or name.startswith("pgbm.")]
        for qualified, kind, counts in TARGETS:
            layer, attr = qualified.split(".")
            original = getattr(importlib.import_module(f"pgbm.{layer}"), attr)
            if kind == "counter":
                wrapper = self.tracer.counter(qualified, original)
            else:
                wrapper = self.tracer.span(qualified, original, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
                    elif isinstance(value, dict):
                        for name, entry in list(value.items()):
                            if entry is original:
                                self._replace(value, name, wrapper)
        return self.tracer

    def _replace(self, container, key, wrapper):
        if isinstance(container, dict):
            self._undo.append((container, key, container[key]))
            container[key] = wrapper
        else:
            self._undo.append((container, key, getattr(container, key)))
            setattr(container, key, wrapper)

    def __exit__(self, *exc):
        for container, key, original in reversed(self._undo):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._undo.clear()
        return False


def layer_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds and summed
    work counts; per counter name: calls and seconds."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        entry = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += span.end - span.start
        entry["self_s"] += own
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0.0) + value
    for name, (calls, seconds) in tracer.counters.items():
        totals[name] = {"calls": calls, "s": seconds, "self_s": seconds}
    return totals


def family_seconds(tracer: Tracer) -> dict[str, float]:
    """Inclusive seconds of ``dist.sample`` calls, per output family.
    A call that raised has no counts, so no family, and is left out."""
    result: dict[str, float] = {}
    for span in tracer.spans:
        if span.name == "dist.sample":
            for key in span.counts:
                if key.startswith("family."):
                    family = key[len("family."):]
                    result[family] = result.get(family, 0.0) + span.end - span.start
    return result


def command_breakdown(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Self seconds per span name within each top-level ``cli.cmd_*``
    span, so each command's time splits across the layers."""
    own = self_times(tracer.spans)
    top: list[int] = []
    for index, span in enumerate(tracer.spans):
        top.append(index if span.parent < 0 else top[span.parent])
    result: dict[str, dict[str, float]] = {}
    for index, span in enumerate(tracer.spans):
        command = tracer.spans[top[index]].name
        bucket = result.setdefault(command, {})
        bucket[span.name] = bucket.get(span.name, 0.0) + own[index]
        for name, seconds in span.covered.items():
            bucket[name] = bucket.get(name, 0.0) + seconds
    return result
