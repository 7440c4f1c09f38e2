#!/usr/bin/env python3
"""Builds the DrTM benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (and the program's
libraries under src/) into .bench_build/perfbench; later calls only
rebuild what changed. The benchmark binary's stdout is passed through, so
the last line printed is the result JSON. Per-run reports and, for
--trace 1, the span trace are written to .bench_build/perfbench-out/.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
BINARY = BUILD / "drtm_perfbench"
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark binary.

    Build output goes to stderr, so stdout carries only the result.
    """
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j4",
                  "--target", "drtm_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return BINARY.exists()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    # The program reads a few DRTM_* overrides (e.g. the location-cache
    # size); the benchmark pins its own configuration.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DRTM_")}
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT)]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                                timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
