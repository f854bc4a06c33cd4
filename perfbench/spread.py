#!/usr/bin/env python3
"""Measures run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload eval-matrix --seeds 1-10

Runs perfbench/run.py once per listed seed (trace 0) and prints, per metric,
the median of the values and the distance between their first and third
quartiles (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound in BENCHMARK.json. Repeating one seed ('1,1,1,1,1') isolates
timing noise from input variation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    """'1-10' is seeds 1..10; '1,1,1' repeats seed 1 three times."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    bench = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True).stdout
        summary = json.loads(out.strip().splitlines()[-1])
        if not summary["correct"] or summary["failed"]:
            sys.exit("seed %d: correct=%s failed=%d" % (
                seed, summary["correct"], summary["failed"]))
        for name, metric in summary["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"])
            for n, m in summary["metrics"].items())), flush=True)
    print("%-22s %14s %8s %7s" % ("metric", "median", "spread", "bound"))
    for metric in bench["end_to_end"]:
        v = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print("%-22s %14.6g %8.4f %7.3f" % (
            metric["name"], med, (q3 - q1) / med, metric["bound"]))


if __name__ == "__main__":
    main()
