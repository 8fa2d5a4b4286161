#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-saturate --seed 1 \
        --seconds 10 --trace 0

The simulator libraries and the driver are built with CMake into
.bench_build (or $CARGO_TARGET_DIR when set); the first run builds, later
runs only check that the build is current. The driver's output is passed
through unchanged: metric lines, then one JSON result line. With --trace 1
the span dump and per-layer summary land in perfbench_out/.

Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-saturate", "fleet-paced", "debug-session")
BUILD_JOBS = "2"
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", BUILD_JOBS])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return None
    return os.path.join(build_dir, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    driver = build(build_dir)
    if driver is None:
        return 1

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(ROOT, "perfbench_out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: driver timed out\n")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        # Never forward a result line from a failed run.
        sys.stdout.write("\n".join(l for l in lines if not l.startswith("{")))
        sys.stdout.write("\n")
        sys.stderr.write("perfbench: driver exited %d\n" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write("perfbench: driver printed no result line\n")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
