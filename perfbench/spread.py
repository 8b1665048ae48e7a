#!/usr/bin/env python3
"""Check the benchmark's run-to-run spread against its bounds.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [workload ...]

For each workload (all of BENCHMARK.json's by default) it runs the benchmark
once per seed, untraced, and prints each end-to-end metric's median and the
distance between its first and third quartile as a share of the median,
next to the metric's bound. A spread above a third of its bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: checks failed", file=sys.stderr)
            for m, v in result["metrics"].items():
                values[m].append(v["value"])
        print(f"{name} ({args.runs} seeds from {args.first_seed})")
        for m in bench["end_to_end"]:
            vs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "  <-- above a third of the bound" if spread > m["bound"] / 3 else ""
            print(f"  {m['name']:<18} median {med:12.5g} {m['unit']:<5} spread {spread:7.4f} bound {m['bound']}{flag}")
            print("      " + " ".join(f"{v:.5g}" for v in vs))


if __name__ == "__main__":
    main()
