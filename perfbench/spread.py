#!/usr/bin/env python3
"""Runs one workload once per seed and prints each metric's median and spread.

Run from the repository root:

    python3 perfbench/spread.py day-ls 21-30 30 [--trace 1]

The spread is (Q3 - Q1) / median, with the quartiles from Python's
statistics.quantiles(values, n=4); BENCHMARK.json's bounds are compared
against it.
"""
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    if len(sys.argv) not in (4, 6):
        print(__doc__, file=sys.stderr)
        return 2
    workload, seeds, seconds = sys.argv[1], seeds_of(sys.argv[2]), sys.argv[3]
    trace = sys.argv[5] if len(sys.argv) == 6 else "0"
    values, outcomes = {}, []
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", trace],
            capture_output=True, text=True)
        if out.returncode != 0:
            print("seed %d failed:\n%s" % (seed, out.stderr), file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        outcomes.append((result["correct"], result["attempted"],
                         result["failed"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (name, metric["value"])
            for name, metric in result["metrics"].items())), flush=True)
    print("%s, seeds %s, %s s: (correct, attempted, failed) %s"
          % (workload, sys.argv[2], seconds, outcomes))
    for name, vals in values.items():
        median = statistics.median(vals)
        spread = 0.0
        if len(vals) >= 2 and median:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / median
        print("%-32s median %-12.6g spread %.4f" % (name, median, spread))
    return 0


if __name__ == "__main__":
    sys.exit(main())
