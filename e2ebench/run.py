#!/usr/bin/env python3
"""End-to-end record + audit benchmark for the AVM reproduction.

Run from the repository root:

    python3 e2ebench/run.py --workload <game-sync|kv-replay|kv-durable> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `avm` library and the benchmark binary (e2ebench/avm_e2e.cc)
from source with CMake in a Release configuration, under the directory
named by $CARGO_TARGET_DIR (default `.bench_build`), then runs one
workload. Build output and progress go to stderr; the last line of
stdout is the benchmark's JSON result. Exits non-zero, without a result,
if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("game-sync", "kv-replay", "kv-durable")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def check_call(cmd, timeout):
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "e2ebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    check_call(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
               BUILD_TIMEOUT_S)
    check_call(["cmake", "--build", cmake_dir, "--target", "avm_e2e", "-j", jobs],
               BUILD_TIMEOUT_S)
    return os.path.join(cmake_dir, "avm_e2e")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"e2ebench: avm_e2e exited with {proc.returncode}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("e2ebench: avm_e2e printed no JSON result", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        print(f"e2ebench: malformed result: {lines[-1]}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
