#!/usr/bin/env python3
"""Run each workload N times, each with another seed, and print per metric
the median and the spread: (Q3 - Q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them. A metric is steady when its
spread is below a third of its bound in BENCHMARK.json.

usage: python3 perfbench/spread.py [--runs 10] [--trace 0] [--first-seed 1] [workload ...]
Run from the repo root, after `cargo build --release --manifest-path perfbench/Cargo.toml`.
"""
import argparse
import json
import statistics
import subprocess
import sys

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--trace", default="0")
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("workloads", nargs="*")
args = ap.parse_args()

bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
workloads = args.workloads or [w["name"] for w in bench["workloads"]]
worst = 0.0
for w in workloads:
    runs = []
    for i in range(args.runs):
        cmd = bench["command"] + ["--workload", w, "--seed", str(args.first_seed + i),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{w} seed {args.first_seed + i}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        assert res["correct"] and res["failed"] == 0, res
        runs.append(res)
    print(f"== {w}: {args.runs} runs, attempted {[r['attempted'] for r in runs]}")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = f" bound {bound} {'ok' if spread < bound / 3 else 'WIDE' if spread < bound else 'OVER'}"
        print(f"{name:34s} median {med:14.6g} min {min(vals):12.6g} max {max(vals):12.6g} spread {spread:7.4f}{flag}")
print(f"worst spread/bound: {worst:.3f}")
