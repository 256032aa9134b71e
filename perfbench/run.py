#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 30 --trace 0

The library (src/) and the driver (perfbench/*.cc) are compiled with CMake
into $CARGO_TARGET_DIR (default .bench_build) on first use; later runs only
re-check the build. Build output goes to standard error.

A run is SUBRUNS driver processes in a row, each given an equal share of
--seconds and the same seed, so each measures the same inputs. Standard
output carries each process's `info` line, then one result object as the
last line: attempted and failed operations summed over the processes, and
per metric the best process (fastest time, highest rate, smallest size),
except `setup_s`, which is their median, and the per-layer metrics of a
traced run, also medians. A process that runs on a slowed host (a busy
neighbour, an unlucky placement of its threads) is then outvoted, while a
change that slows every process moves the result in full.

Exits non-zero, without a result, when the sources or the build are missing
or a driver process fails.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SUBRUNS = 3
RUN_TIMEOUT_S = 170  # for all SUBRUNS processes together
HIGHER_IS_BETTER = {"qps", "qps_1t"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "oracle_server.h")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def combine(results, traced):
    """One result object from the processes' result objects."""
    out = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if traced or name == "setup_s":
            value = statistics.median(values)
        elif name in HIGHER_IS_BETTER:
            value = max(values)
        else:
            value = min(values)
        out["metrics"][name] = {"value": value, "unit": first["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["hot_read", "cold_miss", "churn_mixed"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", type=int, choices=[0, 1], default=0,
                    help="corrupt one sampled answer; the run must count it failed")
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)  # no-op when already absolute
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / SUBRUNS), "--trace", str(args.trace),
           "--self-test", str(args.self_test)]
    results = []
    for _ in range(SUBRUNS):
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S / SUBRUNS)
        except subprocess.TimeoutExpired:
            fail(f"a driver process exceeded {RUN_TIMEOUT_S / SUBRUNS:.0f} s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            fail(f"driver process exited with status {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        results.append(json.loads(lines[-1]))
    print(json.dumps(combine(results, args.trace == 1)), flush=True)


if __name__ == "__main__":
    main()
