#!/usr/bin/env python3
"""Builds and runs the MND-MST end-to-end benchmark described in BENCHMARK.json.

    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds this
directory's CMake package (which compiles ../src) into .bench_build/, then
every call runs the benchmark's self-test and the benchmark itself. The last
line of standard output is the benchmark's JSON result; build output goes to
standard error. Chrome traces of --trace 1 runs land in
.bench_build/e2e_bench/runs/.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = BENCH_DIR.parent / ".bench_build" / "e2e_bench"
# A run must end within 180 s; leave room for process start and teardown.
RUN_TIMEOUT_S = 170
WORKLOADS = ("road_lattice", "web_hub", "rmat_stream")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The Makefile appears only once a configure has succeeded.
    if not (BUILD_DIR / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                    "--target", "e2e_bench", "e2e_bench_selftest"],
                   check=True, stdout=sys.stderr)
    subprocess.run([str(BUILD_DIR / "e2e_bench_selftest")],
                   check=True, stdout=sys.stderr, timeout=60)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    try:
        build()
        result = subprocess.run(
            [str(BUILD_DIR / "e2e_bench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", args.trace, "--out-dir", str(BUILD_DIR / "runs")],
            timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"e2e_bench: {e}", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
