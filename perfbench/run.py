#!/usr/bin/env python3
"""Build and run the B2BObjects benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
driver (perfbench/CMakeLists.txt, compiling ../src) into .bench_build/;
later runs only re-check the build. The driver runs one workload and
checks the federation's outputs (the correctness gate); this script then
checks that its result names every metric BENCHMARK.json asks for, with
its unit, and prints that result as the last line of stdout. Build logs,
the driver's human-readable report and the span summary go to stderr;
traced runs also write every span to .bench_build/traces/.

Exit status is 0 only when a complete, correct result was printed.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "b2b_bench")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j3"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    if result["correct"] is not True:
        fail("result is not correct")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no operation was attempted")
    metrics = result["metrics"]
    for name, unit in expected_metrics(trace).items():
        metric = metrics.get(name)
        if metric is None:
            fail(f"metric {name} missing")
        if metric.get("unit") != unit:
            fail(f"metric {name} has unit {metric.get('unit')}, want {unit}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} has no finite value")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    work = os.path.join(BUILD, "work")
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", work]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"driver exited with status {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver's last line is not JSON")
    check(result, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
