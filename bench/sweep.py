"""Run the benchmark over several seeds and summarise its spread.

    python3 bench/sweep.py --seeds 1-10 --workloads all --out sweep.json

Each run is ``bench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0``, one after another.  For every workload and end-to-end metric the
summary gives the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread, the distance between the quartiles as a share of the median, and
flags a spread above a third of the metric's bound in BENCHMARK.json.  With
``--against`` an earlier summary, it also flags medians that are worse than
that summary's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default="all", help="comma-separated names, or all")
    parser.add_argument("--out", help="write the summary here as JSON")
    parser.add_argument("--against", help="an earlier summary to compare medians with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    summary: dict = {}
    flagged = 0
    for workload in names:
        runs = [run_once(workload, s, spec["run_seconds"]) for s in seeds(args.seeds)]
        summary[workload] = {}
        for name, m in metrics.items():
            row = summarise([r[name] for r in runs])
            summary[workload][name] = row
            notes = []
            if name != "setup_s" and row["spread"] > m["bound"] / 3:
                notes.append("SPREAD")
            if workload in earlier:
                before = earlier[workload][name]["median"]
                change = (row["median"] - before) / before
                if m["better"] == "higher":
                    change = -change
                notes.append(f"vs earlier {change:+.3f}")
                if change > m["bound"]:
                    notes.append("WORSE")
            flagged += "SPREAD" in notes or "WORSE" in notes
            print(f"{workload:14} {name:14} median={row['median']:.6g} {m['unit']:6}"
                  f" spread={row['spread']:.4f} bound={m['bound']} {' '.join(notes)}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
