#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and reports each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]

For every workload in BENCHMARK.json it runs
perfbench/run.py once per seed, then prints for each metric the median,
the first and third quartiles (statistics.quantiles, n=4) and the
interquartile spread as a share of the median, next to the metric's
bound from BENCHMARK.json. A spread above a third of the bound is marked
"!". Any run that fails or reports correct=false stops the script.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: correct=false")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            for name, value in run_once(workload, seed,
                                        spec["run_seconds"]).items():
                values.setdefault(name, []).append(value)
        print(f"== {workload} ({args.runs} seeds from {args.first_seed})")
        for name, vals in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "!" if bound and spread > bound / 3 else " "
            print(f"{flag} {name:34s} median {med:12.4f}  q1 {q1:12.4f}  "
                  f"q3 {q3:12.4f}  spread {spread:7.4f}  bound {bound}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
