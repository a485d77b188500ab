"""The names the benchmark and README.md bind, checked inside the test suite.

The benchmark under ``bench/`` looks spanlab's functions up by module and
name, and its own tests run only under ``python -m pytest bench``.  These
checks make a deletion that would break it, or the README's quick tour,
fail here too.
"""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# What bench/workloads.py reads from each module, besides the traced layers.
WORKLOAD_NAMES = (
    ("verify", "RULES"),
    ("verify", "enumerate_connected"),
    ("verify", "random_graphs"),
    ("verify", "check_graph"),
    ("families", "path_graph"),
    ("families", "complete_bipartite_graph"),
    ("io", "emit_witness_dot"),
    ("graph", "Graph"),
)


def _unresolved(names):
    return [
        f"spanlab.{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(f"spanlab.{module}"), attr)
    ]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_layers_resolve():
    tracing = _load_tracing()
    layers = [(module, attr) for module, attr, _ in tracing._LAYERS]
    assert layers
    assert _unresolved(layers) == []


def test_tracer_counters_read_live_results():
    # Each counter reads attributes of spanlab's arguments and results
    # (``len(report.witness_component)`` among them); run every one on the
    # real objects so that a renamed or reshaped attribute fails here.
    from spanlab.engine import compute_span, extract_witness_tracks
    from spanlab.families import paramecium_graph
    from spanlab.product import MovementRule, build_pair_graph

    g = paramecium_graph(5)
    report = compute_span(g, MovementRule.LAZY)
    tracks = extract_witness_tracks(report)
    calls = {
        "engine.compute_span": ((g, MovementRule.LAZY), report),
        "engine.extract_witness_tracks": ((report,), tracks),
        "product.build_pair_graph": (
            (g, MovementRule.LAZY, report.value),
            build_pair_graph(g, MovementRule.LAZY, report.value),
        ),
    }
    counters = _load_tracing()._COUNTERS
    assert sorted(counters) == sorted(calls)
    for name, count in counters.items():
        values = count(*calls[name])
        assert values, name
        assert all(type(v) is int and v >= 0 for v in values.values()), (name, values)


def test_workload_names_resolve():
    assert _unresolved(WORKLOAD_NAMES) == []


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    # A bare expression whose comment starts with a number states its value.
    for line in code.splitlines():
        m = re.match(r"(?![\w.]+ = )(\S.*?)\s+# (\d+)\b", line)
        if m:
            assert eval(m.group(1), namespace) == int(m.group(2)), line


def test_readme_module_names_resolve():
    # Every backticked ``spanlab.<module>.<name>`` in README.md, so that a
    # removed or renamed name cannot stay documented.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    names = re.findall(r"`spanlab\.(\w+)\.(\w+)`", readme)
    assert names
    assert _unresolved(names) == []
