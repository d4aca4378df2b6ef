#!/usr/bin/env python3
"""Steadiness check for the S2 benchmark.

Runs every workload once per (set, seed) through run.py, for BENCHMARK.json's
run_seconds, and prints, per workload and metric, each set's median and
quartiles, the spread (distance between the quartiles over the median)
against the metric's bound from BENCHMARK.json, and how far each later
set's median moved from the first set's. Run from the repository root:

    python3 perfbench/steady.py                       # 2 seeds x 2 sets
    python3 perfbench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10 --sets 1
    python3 perfbench/steady.py --workloads verify-fattree-flat --trace 1

A spread above a third of the bound, or a set-to-set move above the bound,
is marked with '!'. Exits nonzero if any run fails or reports a failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{completed.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} "
                           f"of {result['attempted']} operations failed")
    return result["metrics"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads:
        sets = []
        start = time.monotonic()
        for _ in range(args.sets):
            runs = [run_once(workload, seed, bench["run_seconds"], args.trace)
                    for seed in args.seeds]
            sets.append(runs)
        per_run = (time.monotonic() - start) / sum(len(r) for r in sets)
        print(f"\n{workload}: {args.sets} set(s) x {len(args.seeds)} seed(s),"
              f" {per_run:.1f} s per run")
        print(f"  {'metric':32} {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6} {'moved':>8}")
        for name in sets[0][0]:
            unit = sets[0][0][name]["unit"]
            bound = bounds.get(name)
            first_median = None
            for index, runs in enumerate(sets):
                values = [run[name]["value"] for run in runs]
                q1, median, q3 = quartiles(values)
                spread = (q3 - q1) / median if median else 0.0
                flag = ""
                if bound is not None and spread > bound / 3:
                    flag = "!"
                moved = ""
                if first_median is None:
                    first_median = median
                elif first_median:
                    shift = median / first_median - 1
                    moved = f"{shift:+.3f}"
                    if bound is not None and shift > bound:
                        flag += "!"
                print(f"  {name + ' (' + unit + ')':32} {index:>3} "
                      f"{median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                      f"{'' if bound is None else bound:>6} {moved:>8} {flag}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as error:
        print(f"FAILED: {error}", file=sys.stderr)
        sys.exit(1)
