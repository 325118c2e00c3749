"""Spans around calls into graphsample's modules, recorded from outside.

The tracer rebinds the names that callers look up (for example
``graphsample.harness.property_report``) to timing wrappers, and puts the
originals back afterwards. ``src/`` is never edited. A span is
``(id, parent, name, tag, start, end, pid, counts)``; its layer is the part
of the name before the first dot.

Spans stay in memory. The one exception is a worker forked by the
harness's process pool: it inherits the wrappers, but it is terminated
rather than returning, so it appends each finished top-level span tree to
``<spill_dir>/spans-<pid>.jsonl`` and the parent reads those files back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

LAYERS = ("graph", "generators", "samplers", "properties", "community", "metrics", "harness")


def _sampler_tag(args, kwargs, result):
    return (kwargs.get("cfg") or args[1]).method


def _sampler_counts(args, kwargs, result):
    t = result.telemetry
    return {"steps": t.steps, "restarts": t.restarts, "teleports": t.teleports,
            "jumps": t.jumps, "trims": t.trims, "nodes": result.n_nodes}


def _report_counts(args, kwargs, result):
    f = result.flags
    return {"path_sources": f["path_sources"], "lcc_fraction": f["lcc_fraction"],
            "community_count": f["community_count"]}


def _load_counts(args, kwargs, result):
    return {"edges": result.load_stats.edges_raw}


def _generator_tag(args, kwargs, result):
    return (kwargs.get("config") or args[0]).model


def _path_tag(args, kwargs, result):
    return result[2]["path_mode"]


# (module, attribute, span name, tag(args, kwargs, result), counts(...)).
# Each entry is a name some caller looks up at call time; the wrapped
# function is whatever that name is bound to when the tracer installs.
TARGETS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    # the benchmark's own calls go through the package namespace
    ("graphsample", "generate", "generators.generate", _generator_tag, None),
    ("graphsample", "load_edge_list", "graph.load_edge_list", None, _load_counts),
    ("graphsample", "sample", "samplers.sample", _sampler_tag, _sampler_counts),
    # the harness: orchestration, cells and aggregation
    ("graphsample.harness", "run_experiment", "harness.run_experiment", None, None),
    ("graphsample.harness", "load_edge_list", "graph.load_edge_list", None, _load_counts),
    ("graphsample.harness", "property_report", "properties.property_report", None, _report_counts),
    ("graphsample.harness", "sample", "samplers.sample", _sampler_tag, _sampler_counts),
    ("graphsample.harness", "sample_subgraph", "graph.sample_subgraph", None, None),
    ("graphsample.harness", "aggregate", "harness.aggregate", None, None),
    ("graphsample.harness", "scaling_ratio", "metrics.scaling_ratio", None, None),
    ("graphsample.harness", "confidence_interval_95", "metrics.confidence_interval_95", None, None),
    ("graphsample.harness", "rmse", "metrics.rmse", None, None),
    ("graphsample.harness", "jsd", "metrics.jsd", None, None),
    # inside one property report
    ("graphsample.properties", "path_length_stats", "properties.path_length_stats", _path_tag, None),
    ("graphsample.properties", "triangle_edge_counts", "properties.triangle_edge_counts", None, None),
    ("graphsample.properties", "assortativity", "properties.assortativity", None, None),
    ("graphsample.properties", "largest_connected_component", "graph.largest_connected_component", None, None),
    ("graphsample.properties", "induced_subgraph", "graph.induced_subgraph", None, None),
    ("graphsample.properties", "detect_communities", "community.detect_communities", None, None),
    ("graphsample.properties", "modularity", "community.modularity", None, None),
    # inside one sample() call
    ("graphsample.samplers", "finalize", "samplers.finalize", None, None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.spill_dir: Path | None = None
        self._stack: list[str] = []
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._worker = False    # True in a process forked from the tracing one
        self._base = 0          # stack depth inherited at fork

    # -- recording ----------------------------------------------------------

    def _open(self) -> tuple[str, str | None]:
        pid = os.getpid()
        if pid != self._pid:    # first span in a forked pool worker
            self._pid = pid
            self._worker = True
            self.spans = []
            self._base = len(self._stack)
        sid = f"{pid}.{next(self._ids)}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, tag, t0, t1, counts) -> None:
        self._stack.pop()
        self.spans.append((sid, parent, name, tag, t0, t1, self._pid, counts))
        if self._worker and len(self._stack) == self._base and self.spill_dir is not None:
            with open(self.spill_dir / f"spans-{self._pid}.jsonl", "a", encoding="utf-8") as fh:
                for span in self.spans:
                    fh.write(json.dumps(span) + "\n")
            self.spans = []

    def wrap(self, fn: Callable, name: str, tag: Callable | None = None,
             counts: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, parent, name, None, t0, time.perf_counter(), None)
                raise
            t1 = time.perf_counter()
            tracer._close(sid, parent, name,
                          tag(args, kwargs, result) if tag else None, t0, t1,
                          counts(args, kwargs, result) if counts else None)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every TARGETS name to its wrapper; restore on exit."""
        saved = []
        try:
            for mod_name, attr, name, tag, counts in TARGETS:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(original, name, tag, counts))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def collect_spills(self) -> None:
        """Move spans written by forked workers into memory."""
        if self.spill_dir is None:
            return
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, "r", encoding="utf-8") as fh:
                self.spans.extend(tuple(json.loads(line)) for line in fh)
            path.unlink()

    def take(self) -> list[tuple]:
        """Return and forget the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# Analysis


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Per layer: span durations minus the part their child spans cover.

    Children that ran in parallel pool workers are merged as a union, so a
    parent's self time never goes negative.
    """
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, _, t0, t1, _, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {layer: 0.0 for layer in LAYERS}
    for sid, parent, name, tag, t0, t1, pid, counts in spans:
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (t1 - t0) - _covered(children.get(sid, []), t0, t1)
    return out


def durations(spans: list[tuple], name: str, tag: Any = None) -> list[float]:
    return [t1 - t0 for _, _, n, tg, t0, t1, _, _ in spans
            if n == name and (tag is None or tg == tag)]


def count_sum(spans: list[tuple], name: str, key: str, tag: Any = None) -> float:
    return sum(c[key] for _, _, n, tg, _, _, _, c in spans
               if n == name and c is not None and (tag is None or tg == tag))
