#!/usr/bin/env python3
"""Repeat-run summary: runs workloads once per seed and reports, per
metric, the median, the quartiles and the spread (interquartile range over
the median, from statistics.quantiles(values, n=4)) next to the metric's
bound from BENCHMARK.json.

    python3 perfbench/repeat.py [--workloads train,generate,serve]
        [--seeds 1,2,...,10] [--trace 0|1] [--out summary.json]

Run from the repository root. Runs are sequential: concurrent runs would
measure each other.
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
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), elapsed


def summarize(values, bound):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    out = {"median": med, "q1": q1, "q3": q3, "spread": spread,
           "values": values}
    if bound is not None:
        out["bound"] = bound
        out["within_third_of_bound"] = spread < bound / 3
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="train,generate,serve")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    report = {}
    for workload in args.workloads.split(","):
        per_metric, runs = {}, []
        for seed in seeds:
            result, elapsed = run_once(workload, seed, bench["run_seconds"],
                                       args.trace)
            runs.append({"seed": seed, "elapsed_s": round(elapsed, 1),
                         "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"]})
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct="
                  f"{result['correct']}, failed={result['failed']}",
                  flush=True)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        metrics = {name: summarize(v, bounds.get(name) if args.trace == "0"
                                   else None)
                   for name, v in per_metric.items()}
        report[workload] = {"runs": runs, "metrics": metrics}
        for name, s in metrics.items():
            flag = "" if s.get("within_third_of_bound", True) else "  <-- wide"
            print(f"  {name:34s} median {s['median']:<14.6g} spread "
                  f"{s['spread']:.3f}{flag}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
