#!/usr/bin/env python3
"""Builds and runs the StreamApprox facade benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the library from src/ plus the benchmark
into .bench_build/perfbench (Release); later calls only rebuild what changed.
Build output goes to standard error, so the last line of standard output is
the benchmark's JSON result. Exits non-zero without a result when the build
or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["zipf64-seq", "zipf64-x2", "wide4096-fanout-x2", "paced-zipf64-x2"]
# One run must end within 180 s; a cold build has its own, longer allowance.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            print("perfbench: %s" % error, file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    trace_file = os.path.join(
        BUILD, "traces", "%s-seed%d.tsv" % (args.workload, args.seed))
    command = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-file", trace_file,
    ]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        print("perfbench: run failed (exit %d)" % done.returncode,
              file=sys.stderr)
        return done.returncode or 4
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
