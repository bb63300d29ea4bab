#!/usr/bin/env python3
"""Entry point of the closed-loop graph-job benchmark (BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (a CMake package that compiles the engine from ../src)
in Release mode under .bench_build/perfbench, runs one workload, and
re-emits the benchmark's result object as the last line of stdout after
checking it names exactly the metrics BENCHMARK.json lists for the mode.
Build logs go to stderr. Per-run reports (every sample, the environment
fingerprint, and in traced runs every span) land in
.bench_build/perfbench-reports/. Exits non-zero, printing no result, if
the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
REPORT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-reports")
# A run has 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        want = expected_metrics(args.trace)
        binary = build()
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", REPORT_DIR],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        print("perfbench: last line is not a JSON result", file=sys.stderr)
        return 1
    if sorted(want) != sorted(result["metrics"]):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        print(f"perfbench: metrics differ from BENCHMARK.json: missing "
              f"{missing}, unexpected {extra}", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
