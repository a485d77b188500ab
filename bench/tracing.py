"""Spans and counters recorded around calls into spanlab's public functions.

Each layer is traced from outside: the name its caller looks up (for example
``spanlab.verify.compute_span`` or ``Graph.__init__``) is rebound to a wrapper
for the duration of the traced phase and restored afterwards, so the program
under test is never edited.  Spans are kept in memory and written once, at the
end of the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# Span record layout; plain lists keep the per-call cost of tracing low.
_ID, _PARENT, _OP, _NAME, _START, _END, _CHILD_NS, _COUNTS = range(8)

# (module, binding, span name) for every traced layer.
# Both bindings of a function are wrapped where spanlab calls it through one
# module and the benchmark through the other.
_LAYERS = (
    ("verify", "bridges", "graph.bridges"),
    ("engine", "build_pair_graph", "product.build_pair_graph"),
    ("engine", "components_with_double_surjectivity",
     "product.components_with_double_surjectivity"),
    ("engine", "compute_span", "engine.compute_span"),
    ("verify", "compute_span", "engine.compute_span"),
    ("engine", "extract_witness_tracks", "engine.extract_witness_tracks"),
    ("verify", "extract_witness_tracks", "engine.extract_witness_tracks"),
    ("engine", "validate_tracks", "engine.validate_tracks"),
    ("verify", "validate_tracks", "engine.validate_tracks"),
    ("verify", "direct_to_lazy", "engine.direct_to_lazy"),
    ("verify", "lazy_to_direct", "engine.lazy_to_direct"),
    ("verify", "oracle_span", "verify.oracle_span"),
    ("verify", "cut_edge_bound", "verify.cut_edge_bound"),
    ("verify", "check_graph", "verify.check_graph"),
    ("verify", "emit_graph6", "io.emit_graph6"),
    ("io", "emit_witness_dot", "io.emit_witness_dot"),
)


def _count_pairs(args: tuple, pg: Any) -> dict[str, int]:
    return {"pairs": pg.vertex_count}


def _count_thresholds(args: tuple, report: Any) -> dict[str, int]:
    return {"thresholds": args[0].radius - report.value + 1}


def _count_witness(args: tuple, tracks: Any) -> dict[str, int]:
    return {"component_pairs": len(args[0].witness_component), "steps": tracks.length}


_COUNTERS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "product.build_pair_graph": _count_pairs,
    "engine.compute_span": _count_thresholds,
    "engine.extract_witness_tracks": _count_witness,
}

# Per-layer metrics of the traced run: (name, unit, better).  Times are self
# times (a span's duration minus its child spans) unless the name ends in
# ``.s``, which is a span's whole duration.
PER_LAYER = (
    ("graph.Graph.self_s", "s", "lower"),
    ("graph.Graph.calls", "count", "lower"),
    ("graph.bridges.self_s", "s", "lower"),
    ("product.build_pair_graph.self_s", "s", "lower"),
    ("product.build_pair_graph.calls", "count", "lower"),
    ("product.pairs_built", "count", "lower"),
    ("product.components_with_double_surjectivity.self_s", "s", "lower"),
    ("engine.compute_span.self_s", "s", "lower"),
    ("engine.thresholds_visited", "count", "lower"),
    ("engine.extract_witness_tracks.self_s", "s", "lower"),
    ("engine.witness_component_pairs", "count", "lower"),
    ("engine.witness_steps", "steps", "lower"),
    ("engine.validate_tracks.self_s", "s", "lower"),
    ("engine.validate_tracks.calls", "count", "lower"),
    ("engine.direct_to_lazy.self_s", "s", "lower"),
    ("engine.lazy_to_direct.self_s", "s", "lower"),
    ("verify.oracle_span.self_s", "s", "lower"),
    ("verify.oracle_span.calls", "count", "lower"),
    ("verify.cut_edge_bound.self_s", "s", "lower"),
    ("verify.check_graph.self_s", "s", "lower"),
    ("verify.enumerate_connected.s", "s", "lower"),
    ("verify.random_graphs.s", "s", "lower"),
    ("io.emit_graph6.self_s", "s", "lower"),
    ("io.emit_witness_dot.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1  # index of the op being run; -1 during set-up
        self._stack: list[list] = []
        self._t0 = time.perf_counter_ns()

    def open(self, name: str) -> list:
        parent = self._stack[-1][_ID] if self._stack else -1
        span = [len(self.spans), parent, self.op, name, time.perf_counter_ns(), 0, 0, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[_END] = time.perf_counter_ns()
        self._stack.pop()
        if self._stack:
            self._stack[-1][_CHILD_NS] += span[_END] - span[_START]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        s = self.open(name)
        try:
            yield
        finally:
            self.close(s)

    def wrap(self, name: str, fn: Callable) -> Callable:
        count = _COUNTERS.get(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            s = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(s)
            if count is not None:
                s[_COUNTS] = count(args, result)
            return result

        return traced

    def bindings(self, mods: Any) -> list[tuple[Any, str, Callable]]:
        """Every (owner, attribute, wrapper) the traced phase installs."""
        out = [
            (getattr(mods, module), attr, self.wrap(name, getattr(getattr(mods, module), attr)))
            for module, attr, name in _LAYERS
        ]
        graph_cls = mods.graph.Graph
        out.append((graph_cls, "__init__", self.wrap("graph.Graph", graph_cls.__init__)))
        return out

    def layer_metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics over every span recorded."""
        calls: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        total_ns: Counter[str] = Counter()
        counts: Counter[str] = Counter()
        for s in self.spans:
            name = s[_NAME]
            dur = s[_END] - s[_START]
            calls[name] += 1
            total_ns[name] += dur
            self_ns[name] += dur - s[_CHILD_NS]
            if s[_COUNTS]:
                counts.update(s[_COUNTS])
        special: dict[str, float] = {
            "product.pairs_built": counts["pairs"],
            "engine.thresholds_visited": counts["thresholds"],
            "engine.witness_component_pairs": counts["component_pairs"],
            "engine.witness_steps": counts["steps"],
            "trace.overhead_ratio": overhead_ratio,
        }
        values: dict[str, float] = {}
        for metric, _unit, _better in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if metric in special:
                values[metric] = special[metric]
            elif kind == "calls":
                values[metric] = calls[layer]
            elif kind == "self_s":
                values[metric] = self_ns[layer] / 1e9
            else:
                values[metric] = total_ns[layer] / 1e9
        return values

    def write(self, path: str) -> None:
        """One JSON object per span: name, start, end (ns from the tracer's
        start), parent span id (-1 for none), op index and counters."""
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {
                    "id": s[_ID],
                    "parent": s[_PARENT],
                    "op": s[_OP],
                    "name": s[_NAME],
                    "start": s[_START] - self._t0,
                    "end": s[_END] - self._t0,
                }
                if s[_COUNTS]:
                    rec.update(s[_COUNTS])
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


@contextmanager
def rebound(bindings: list[tuple[Any, str, Callable]]) -> Iterator[None]:
    """Install ``owner.attr = replacement`` for each binding, then restore."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in bindings]
    try:
        for owner, attr, replacement in bindings:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
