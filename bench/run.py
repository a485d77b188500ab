"""Benchmark for spanlab: one workload, one seed, one closed-loop caller.

Run from the root of a checkout:

    python3 bench/run.py --workload deep-paths --seed 1 --seconds 30 --trace 0

It runs the workload in whole passes, as many as fit in ``--seconds`` (at
least one).  A pass imports spanlab afresh from the checkout's ``src`` and
builds the workload's inputs from the seed (the set-up), then runs every op
once, one at a time.  Every op checks its outputs.  Times are scaled by a
speed probe timed between ops (see ``probe.py``), so that they measure the
program rather than the drift of a shared machine's speed.  The metrics are
printed one per line, by name and unit, and the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run does untraced passes for half the time and then one traced pass, set-up
included.  It reports the per-layer metrics of the traced pass (unscaled) and
the tracing overhead, and writes the spans to ``.bench_out/``.

Exit codes: 0 when every op was correct, 1 when any op failed (the result is
still printed), 2 when the benchmark cannot run at all (no result printed).
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import probe
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("graph", "product", "engine", "verify", "io", "families")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("witness_steps", "steps"),
)


class CannotRun(Exception):
    """The benchmark cannot run in this directory."""


def import_spanlab() -> SimpleNamespace:
    """Import spanlab afresh from the checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "spanlab" or m.startswith("spanlab.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        pkg = importlib.import_module("spanlab")
    except ImportError as exc:
        raise CannotRun(f"cannot import spanlab from {src}: {exc}") from None
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "spanlab":
        raise CannotRun(f"spanlab imported from {pkg.__file__}, not from the checkout")
    return SimpleNamespace(**{m: importlib.import_module(f"spanlab.{m}") for m in MODULES})


@dataclass
class Phase:
    """Outcome of running whole passes over a workload's ops.

    Times are scaled by the speed probe (see ``probe.py``); ``raw_s`` is the
    unscaled time the ops took.
    """

    setups: list[float] = field(default_factory=list)
    latencies: list[list[float]] = field(default_factory=list)  # per op, one per pass
    pass_seconds: list[float] = field(default_factory=list)  # ops of each pass
    raw_s: float = 0.0
    failed: int = 0

    @property
    def passes(self) -> int:
        return len(self.pass_seconds)

    @property
    def attempted(self) -> int:
        return sum(map(len, self.latencies))

    def op_medians(self) -> list[float]:
        """Each op's median latency over the passes."""
        return [statistics.median(runs) for runs in self.latencies]


def run_passes(args: argparse.Namespace, sizes: workloads.Sizes, seconds: float,
               bindings=lambda mods: [], span=None, on_op=None, max_passes=None) -> Phase:
    """Closed loop, one op at a time, in whole passes over the workload.

    Each pass first imports spanlab afresh and builds the inputs (timed as
    set-up), installs ``bindings(mods)`` after the fault, if any, and then
    runs every op once.  Another pass starts only while the mean pass so far
    still fits in ``seconds``; the first always runs.
    """
    phase = Phase()
    speed = probe.SpeedProbe()
    start = time.perf_counter()
    while True:
        with ExitStack() as stack:
            speed.sample()
            t0 = time.perf_counter()
            mods = import_spanlab()
            stack.enter_context(tracing.rebound(fault_bindings(mods, args.corrupt_span)))
            stack.enter_context(tracing.rebound(bindings(mods)))
            ops = workloads.BUILDERS[args.workload](
                mods, args.seed, sizes, span or (lambda _name: nullcontext()))
            setup = time.perf_counter() - t0
            speed.sample()
            phase.setups.append(setup * speed.scale(len(speed.samples) - 2))
            runs = []  # (unscaled latency, index of the last probe sample before it)
            for i, op in enumerate(ops):
                if speed.due():
                    speed.sample()
                if on_op is not None:
                    on_op(i)
                t0 = time.perf_counter()
                try:
                    op()
                except Exception:  # an op's failure is counted, and the run goes on
                    phase.failed += 1
                    if phase.failed <= 3:
                        print(f"op {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
                runs.append((time.perf_counter() - t0, len(speed.samples) - 1))
        speed.sample()
        scaled = [raw * speed.scale(k) for raw, k in runs]
        phase.latencies = [done + [t] for done, t in zip(phase.latencies or [[]] * len(ops), scaled)]
        phase.pass_seconds.append(sum(scaled))
        phase.raw_s += sum(raw for raw, _ in runs)
        elapsed = time.perf_counter() - start
        if phase.passes == max_passes or elapsed * (phase.passes + 1) / phase.passes > seconds:
            return phase


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Value, percentile and count beyond, for the highest percentile that
    has at least 10 samples beyond it.  Below 21 samples that percentile would
    not lie above the median, so the maximum is reported instead."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - 10 if n > 20 else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


class StepCounter:
    """Adds up the length of every witness walk extracted."""

    def __init__(self) -> None:
        self.steps = 0

    def bindings(self, mods: SimpleNamespace) -> list:
        return [(m, "extract_witness_tracks", self._wrap(m.extract_witness_tracks))
                for m in (mods.engine, mods.verify)]

    def _wrap(self, fn: Callable) -> Callable:
        def counted(report):
            tracks = fn(report)
            self.steps += tracks.length
            return tracks

        return counted


def corrupt_span(fn: Callable) -> Callable:
    """Report every span one too high, to prove the correctness gate fires."""

    def corrupted(g, rule):
        report = fn(g, rule)
        return replace(report, value=report.value + 1)

    return corrupted


def fault_bindings(mods: SimpleNamespace, corrupt: bool) -> list:
    if not corrupt:
        return []
    return [(m, "compute_span", corrupt_span(m.compute_span)) for m in (mods.engine, mods.verify)]


def measure(args: argparse.Namespace, sizes: workloads.Sizes) -> tuple[dict, int, int]:
    counter = StepCounter()
    phase = run_passes(args, sizes, args.seconds, bindings=counter.bindings)
    attempted = phase.attempted
    per_op = phase.op_medians()
    op_tail, pct, beyond = tail(per_op)
    metrics = {
        "setup_s": statistics.median(phase.setups),
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": op_tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # Every pass extracts the same walks, so this is exact unless an op failed.
        "witness_steps": counter.steps // phase.passes,
    }
    print(f"passes={phase.passes} ops={attempted} ops_s_unscaled={attempted / phase.raw_s}")
    print(f"op latency is each op's median over the passes;"
          f" op_tail is p{pct:.2f} of {len(per_op)} ops, {beyond} beyond it")
    return metrics, attempted, phase.failed


def measure_traced(args: argparse.Namespace, sizes: workloads.Sizes) -> tuple[dict, int, int]:
    plain = run_passes(args, sizes, args.seconds / 2)
    tracer = tracing.Tracer()
    traced = run_passes(args, sizes, args.seconds / 2, bindings=tracer.bindings,
                        span=tracer.span, on_op=lambda i: setattr(tracer, "op", i), max_passes=1)
    untraced_s = statistics.median(plain.pass_seconds)
    metrics = tracer.layer_metrics(traced.pass_seconds[0] / untraced_s - 1)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}.spans.jsonl"
    tracer.write(str(path))
    print(f"spans={len(tracer.spans)} written to {path.relative_to(ROOT)}")
    print(f"ops of one pass: {untraced_s:.4f} s untraced (median of {plain.passes}),"
          f" {traced.pass_seconds[0]:.4f} s traced, both scaled")
    return metrics, plain.attempted + traced.attempted, plain.failed + traced.failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the benchmark's own tests; figures are not comparable")
    parser.add_argument("--corrupt-span", action="store_true",
                        help="report every span one too high, to check that the correctness gate fires")
    args = parser.parse_args(argv)
    sizes = workloads.QUICK if args.quick else workloads.FULL

    try:
        import_spanlab()  # fail before printing anything when there is no program
        print(f"workload={args.workload} seed={args.seed} seconds={args.seconds}"
              f" trace={args.trace} quick={int(args.quick)}")
        if args.trace:
            metrics, attempted, failed = measure_traced(args, sizes)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        else:
            metrics, attempted, failed = measure(args, sizes)
            units = dict(END_TO_END)
    except CannotRun as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for name, value in metrics.items():
        print(f"{name}={value} {units[name]}")
    print(f"failed_ops_ratio={failed / attempted} ratio ({failed} of {attempted} ops failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
