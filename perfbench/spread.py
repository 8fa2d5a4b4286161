#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workloads paper-saturate fleet-paced \
        --seeds 1-10 [--seconds 10] [--trace 0] [--out results.json]

For every workload and metric it prints the median of the per-run values
and the spread, (Q3 - Q1) / median with statistics.quantiles(n=4), next to
the metric's bound from BENCHMARK.json. Runs are sequential so they do not
disturb each other. --out keeps every run's result line for later
comparison (e.g. a parent commit against a change).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True,
                         check=True).stdout
    return json.loads(out.rstrip("\n").split("\n")[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    record = {}
    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            r = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, **r})
            print("%s seed %d: correct=%s failed=%d/%d" %
                  (workload, seed, r["correct"], r["failed"], r["attempted"]),
                  flush=True)
        record[workload] = runs
        names = list(runs[0]["metrics"])
        print("\n%-14s %-28s %14s %9s %7s" %
              ("workload", "metric", "median", "spread", "bound"))
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print("%-14s %-28s %14.6g %8.2f%% %7s" %
                  (workload, name, med, 100 * spread,
                   "" if bound is None else "%.0f%%" % (100 * bound)))
        print(flush=True)
    print("largest spread / bound (setup_s excluded): %.2f" % worst)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
