#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign-large --seed 1 \
        --seconds 30 --trace 0

The first run configures and builds the library, the mufuzzd daemon and
the benchmark program (Release) into .bench_build/ (or $CARGO_TARGET_DIR when
set); later runs only check that the build is current. Build output goes to
standard error, so the last line of standard output is the benchmark program's JSON
summary. `--workload all` runs every workload in turn and ends with one
summary whose metric names are prefixed by the workload.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["campaign-large", "eval-matrix", "daemon-scan"]
HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_one(build_dir, args, workload):
    cmd = [os.path.join(build_dir, "mufuzz_perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(build_dir, "mufuzz", "mufuzzd")]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else None
    return proc.returncode, summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora and budgets (self-test)")
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1

    if args.workload != "all":
        code, _ = run_one(build_dir, args, args.workload)
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, summary = run_one(build_dir, args, workload)
        worst = worst or code
        if summary is None:
            return code or 1
        merged["correct"] = merged["correct"] and summary["correct"]
        merged["attempted"] += summary["attempted"]
        merged["failed"] += summary["failed"]
        for name, metric in summary["metrics"].items():
            merged["metrics"]["%s/%s" % (workload, name)] = metric
    print(json.dumps(merged))
    return worst


if __name__ == "__main__":
    sys.exit(main())
