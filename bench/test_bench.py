"""The benchmark's own tests: ``python -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "0.2", "--quick", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_quick_run_prints_every_metric_with_its_unit(workload, trace, kind):
    proc = bench("--workload", workload, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        value = result["metrics"][name]["value"]
        assert f"{name}={value} {unit}" in lines
    assert any(line.startswith("failed_ops_ratio=0.0 ratio") for line in lines)
    assert "seed=3" in lines[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_span_is_a_failed_op(workload):
    proc = bench("--workload", workload, "--trace", "0", "--corrupt-span")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "deep-paths", cwd=tmp_path)
    assert proc.returncode == 2
    assert '"metrics"' not in proc.stdout


def _edge_sets(name: str, seed: int) -> list:
    mods = run.import_spanlab()
    ops = workloads.BUILDERS[name](mods, seed, workloads.QUICK, lambda _name: nullcontext())
    return [(op.args[1].n, op.args[1].edges()) for op in ops]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    assert _edge_sets(workload, 5) == _edge_sets(workload, 5)
    assert _edge_sets(workload, 5) != _edge_sets(workload, 6)


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    outer = tracer.open("verify.check_graph")
    inner = tracer.open("engine.compute_span")
    tracer.close(inner)
    tracer.close(outer)
    inner[tracing._START], inner[tracing._END] = 10, 40
    outer[tracing._START], outer[tracing._END] = 0, 100
    outer[tracing._CHILD_NS] = 30
    values = tracer.layer_metrics(overhead_ratio=0.5)
    assert values["verify.check_graph.self_s"] == pytest.approx(70e-9)
    assert values["engine.compute_span.self_s"] == pytest.approx(30e-9)
    assert values["engine.thresholds_visited"] == 0
    assert [name for name, _, _ in tracing.PER_LAYER] == list(values)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, unit, _ in tracing.PER_LAYER
    }
