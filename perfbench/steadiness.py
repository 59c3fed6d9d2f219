#!/usr/bin/env python3
"""Steadiness check: run each workload on several seeds and compare the
spread of every end-to-end metric with its bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--seeds 10] [--first-seed 1]
                                    [--workloads exact_rewrite,...]

For each workload and metric it prints the median of the per-seed
values and their interquartile range as a share of that median
(statistics.quantiles(values, n=4)), next to the metric's bound. A
spread below a third of the bound is marked "ok"; setup_s is shown but
not judged (only its median is compared between runs). Runs go through
perfbench/run.py, so the first one builds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for workload in args.workloads.split(","):
        print(workload, flush=True)
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True)
            if out.returncode:
                print("%s seed %d: exit %d\n%s" % (
                    workload, seed, out.returncode, out.stderr[-2000:]))
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            print("  seed %d: %s" % (seed, " ".join(
                "%s=%.4g" % (k, m["value"])
                for k, m in result["metrics"].items())), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("  spread over %d seeds:" % args.seeds)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            verdict = ("-" if name == "setup_s" else
                       "ok" if spread < bounds[name] / 3 else "WIDE")
            status |= verdict == "WIDE"
            print("    %-14s median %-12.6g spread %.4f  bound %.2f  %s" % (
                name, med, spread, bounds[name], verdict))
    return status


if __name__ == "__main__":
    sys.exit(main())
