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


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    layers = [(module, attr) for module, attr, _ in tracing._LAYERS]
    assert layers
    assert _unresolved(layers) == []


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
