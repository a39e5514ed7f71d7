#!/usr/bin/env python3
"""Builds hmpi_perf from this checkout and runs one benchmark workload.

Run from the repository root:

    python3 perf/run.py --workload fig9_em3d --seed 1 --seconds 10 --trace 0

The first call configures and builds perf/ (and the library it compiles from
src/) into .bench_build/; later calls only rebuild what changed. Build output
goes to stderr. hmpi_perf's own report goes to stdout, followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}, where the metrics are
BENCHMARK.json's end_to_end set (--trace 0) or its per_layer set (--trace 1).
Exits non-zero, without that line, when the build or the run fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perf/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion; a timeout kills it and waits for it to end."""
    try:
        return subprocess.run(cmd, timeout=timeout, check=False, **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} did not finish within {timeout} s")
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = run(["cmake", "-S", os.path.join(ROOT, "perf"), "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"],
                        BUILD_TIMEOUT_S, stdout=sys.stderr)
        if configure.returncode != 0:
            fail("configuring perf/ failed")
    compiled = run(["cmake", "--build", BUILD_DIR, "--target", "hmpi_perf", "-j", jobs],
                   BUILD_TIMEOUT_S, stdout=sys.stderr)
    if compiled.returncode != 0:
        fail("building hmpi_perf failed")
    return os.path.join(BUILD_DIR, "hmpi_perf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            benchmark = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = benchmark["per_layer" if args.trace == "1" else "end_to_end"]
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        fail(f"unknown workload {args.workload}")

    binary = build()
    out = os.path.join(BUILD_DIR, "results",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    if os.path.exists(out):
        os.remove(out)
    sys.stdout.flush()
    finished = run([binary, "run", "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", repr(args.seconds),
                    "--trace", args.trace, "--out", out], RUN_TIMEOUT_S)

    try:
        with open(out) as f:
            result = json.load(f)["runs"][0]
    except (OSError, ValueError, KeyError, IndexError) as e:
        fail(f"hmpi_perf left no result ({e}); exit status {finished.returncode}")

    metrics = {}
    for spec in wanted:
        measured = result["metrics"].get(spec["name"])
        if measured is None:
            fail(f"hmpi_perf did not report {spec['name']}")
        value = measured["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{spec['name']} is not a finite number: {value!r}")
        if measured["unit"] != spec["unit"]:
            fail(f"{spec['name']} is in {measured['unit']}, BENCHMARK.json says "
                 f"{spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}

    correct = finished.returncode == 0 and result["correct"] and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
