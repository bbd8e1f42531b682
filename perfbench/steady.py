#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly, one seed per run, and
print each metric's median, quartiles and spread.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--trace 0]
                                [--seconds S] [WORKLOAD ...]

Run from the root of a checkout.  Spread is (Q3 - Q1) / median with
the quartiles of statistics.quantiles(values, n=4); for end-to-end
metrics it is printed beside the metric's bound from BENCHMARK.json.
Before and after each run a fixed calibration loop is timed and
printed.  It is a diagnostic, not a metric: when it slows down too,
the machine went through a slow stretch, not the program.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def calibrate():
    t0 = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x += i * i
    return time.perf_counter() - t0


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in workloads:
        values, shares = {}, []
        for k in range(args.runs):
            seed = args.first_seed + k
            before = calibrate()
            t0 = time.time()
            proc = subprocess.run(
                bench["command"]
                + ["--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            wall = time.time() - t0
            after = calibrate()
            if proc.returncode != 0:
                print("%s seed %d: exit %d" % (w, seed, proc.returncode))
                sys.exit(1)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.append((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %.1f s, calibration %.3f s before, %.3f s after, "
                  "failed %d/%d, correct %s, %s"
                  % (w, seed, wall, before, after, result["failed"],
                     result["attempted"], result["correct"],
                     " ".join("%s=%.6g" % (k, v["value"])
                              for k, v in result["metrics"].items()
                              if k in bounds)), flush=True)
        print("== %s: %d runs, failed shares %s" % (
            w, args.runs, sorted(set("%d/%d" % s for s in shares))))
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print("  %-32s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s" % (
                name, med, q1, q3, spread,
                "" if bound is None else "  bound %.2f (%.2f of it)" % (bound, spread / bound)))


if __name__ == "__main__":
    main()
