#!/usr/bin/env python3
"""Runs workloads over several seeds and summarizes each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/sweep.py [--workloads search,traffic,execute]
        [--seeds 1-10] [--seconds S] [--trace 0|1] [--json FILE]

For each workload it runs perfbench/run.py once per seed, in order, and
prints for every metric the median, the first and third quartiles (as
Python's statistics.quantiles(values, n=4) gives them), the spread
(Q3 - Q1) / median, and, for an end-to-end metric, the share of its bound
in BENCHMARK.json that spread uses. It also prints the failed share of
each run. --json writes every run's result record to FILE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(Q1, median, Q3) by statistics.quantiles' default method."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def result_line(stdout):
    """The result record: the last line of the benchmark's stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    record = json.loads(lines[-1])
    if set(record) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys %s" % sorted(record))
    return record


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, done.returncode))
    return result_line(done.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    records = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            record = run_once(workload, seed, args.seconds, args.trace)
            runs.append(record)
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 6) for k, v in
                 record["metrics"].items()})), file=sys.stderr, flush=True)
        records[workload] = runs
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("\n%s: %d runs, failed share %s, correct %s" % (
            workload, len(runs), shares, all(r["correct"] for r in runs)))
        print("  %-32s %14s %14s %14s %8s %8s" % (
            "metric", "Q1", "median", "Q3", "spread", "of bound"))
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            of_bound = ("%7.0f%%" % (100 * s / bounds[name])
                        if name in bounds else "")
            print("  %-32s %14.6g %14.6g %14.6g %7.2f%% %8s  %s" % (
                name, q1, q2, q3, 100 * s, of_bound, metric["unit"]))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(records, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
