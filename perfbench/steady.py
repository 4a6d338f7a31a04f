#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload of BENCHMARK.json several times, each with another
seed, and prints for every end-to-end metric the median, the quartiles and
the spread (interquartile distance over the median) against the metric's
bound. Run it from the root of the repository:

    python3 perfbench/steady.py                  # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads keystroke

It exits non-zero if a run fails or reports a wrong output, if a spread
exceeds its bound, or if the share of failed ops differs between runs.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()

    ok = True
    for wl in args.workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        shares, walls = set(), []
        for r in range(args.runs):
            seed = args.first_seed + r
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.monotonic() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(lines[-1])
            if not res["correct"]:
                print(f"{wl} seed {seed}: wrong output", file=sys.stderr)
                return 1
            shares.add(res["failed"] / res["attempted"])
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print(f"{wl}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"failed share {sorted(shares)}, run wall {min(walls):.1f}-{max(walls):.1f} s")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            ratio = spread / m["bound"]
            flag = ""
            if ratio > 1:
                flag, ok = "  OVER BOUND", False
            elif ratio > 1 / 3:
                flag = "  over a third"
            print(f"  {m['name']:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {m['bound']:>6} {ratio:>12.3f}{flag}")
        if len(shares) != 1:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
