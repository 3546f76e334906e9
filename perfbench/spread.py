#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --seconds 30
    python3 perfbench/spread.py --workloads fleet --seeds 1-5 --seconds 30
    python3 perfbench/spread.py --seeds 1-10 --seconds 30 --out baseline.json

For every workload and end-to-end metric it prints every run's value, the
median of the runs and the quartile spread, (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4), next to the metric's bound from
BENCHMARK.json. --out writes the medians, quartiles and the host and input
fingerprint of the last run as a baseline file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay", "fleet", "durable_lineage")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        help="default: the workloads BENCHMARK.json lists")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if not args.workloads:
        args.workloads = [w["name"] for w in spec["workloads"]]
    baseline = {"seconds": args.seconds, "seeds": args.seeds,
                "workloads": {}}
    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 "%g" % args.seconds, "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print("%s seed %d failed (exit %d)" %
                      (workload, seed, proc.returncode))
                return 1
            runs.append(result["metrics"])
        print("%s: %d runs" % (workload, len(runs)))
        summary = {}
        for name, bound in bounds.items():
            values = [run[name]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": spread,
                             "unit": runs[0][name]["unit"]}
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print("  %-16s median %14.4f  spread %6.3f  bound %.2f%s" %
                  (name, median, spread, bound,
                   "  (over a third)" if spread > bound / 3 else ""))
            print("    runs: " + " ".join("%.5g" % v for v in values))
        results = os.path.join(ROOT, ".bench_build", "results",
                               "%s-seed%d-trace0.json" %
                               (workload, parse_seeds(args.seeds)[-1]))
        with open(results) as result_file:
            fingerprint = json.load(result_file)["fingerprint"]
        baseline["workloads"][workload] = {"metrics": summary,
                                           "fingerprint": fingerprint}
    print("largest spread / bound (setup_s excluded): %.2f" % worst)
    if args.out:
        with open(args.out, "w") as out:
            json.dump(baseline, out, indent=1, sort_keys=True)
            out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
