#!/usr/bin/env python3
"""Run the benchmark several times per workload and report run-to-run spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--runs 10] [--seconds 25] [--trace 0]
                                [--first-seed 1] [--workloads a,b] [--json out.json]

Each run gets its own seed (first-seed, first-seed + 1, ...). For every
metric the script prints the median, the first and third quartiles
(Python's statistics.quantiles(values, n=4)) and the interquartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json. Exact counters (trace 1) must read the same for a seed
on every run; compare two --json files of the same seeds to check that.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--json", default=None)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    summary = {}
    for w in workloads:
        results = [run(bench["command"], w, a.first_seed + i, seconds, a.trace) for i in range(a.runs)]
        failed = sum(r["failed"] for r in results)
        print(f"{w}: {a.runs} runs, {sum(r['attempted'] for r in results)} steps, {failed} failed")
        summary[w] = {"runs": results, "metrics": {}}
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[w]["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + ("  OVER" if spread > bound else "")
            print(f"  {name:48s} {med:14.6g} {unit:9s} q1 {q1:.6g} q3 {q3:.6g} spread {100 * spread:5.1f}%{flag}")
    if a.json:
        with open(a.json, "w") as f:
            json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
