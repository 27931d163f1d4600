#!/usr/bin/env python3
"""Runs every workload of the benchmark over several seeds and summarises.

    python3 perfbench/sweep.py                      # 10 seeds, all workloads
    python3 perfbench/sweep.py --seeds 1-5 --workloads train_ticks

For each workload it makes one timed run per seed (run.py --trace 0) and
prints, per end-to-end metric, the median over the seeds and the spread: the
distance between the first and third quartile as a share of the median, as
statistics.quantiles(values, n=4) gives them. The spread is compared with a
third of the metric's bound from BENCHMARK.json. Then it makes one traced
run (--trace 1) at the first seed and prints its per-layer metrics. Any
failed output check is reported and makes the exit code non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    all_correct = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            result = run(workload, seed, args.seconds, 0)
            all_correct &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"\n### {workload} ({len(seeds)} seeds, {args.seconds} s runs)\n")
        print("| metric | unit | median | spread | bound/3 |")
        print("|---|---|---|---|---|")
        for name, (unit, vs) in values.items():
            median = statistics.median(vs)
            spread = 0.0
            if len(vs) > 1 and median != 0:
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / abs(median)
            print(f"| {name} | {unit} | {median:.6g} | {spread:.3f} | "
                  f"{bounds[name] / 3:.3f} |")
        traced = run(workload, seeds[0], args.seconds, 1)
        all_correct &= traced["correct"]
        layers = ", ".join(f"{k}={m['value']:.4g}"
                           for k, m in traced["metrics"].items()
                           if m["value"] != 0)
        print(f"\ntraced (seed {seeds[0]}, correct={traced['correct']}): "
              f"{layers}", flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
