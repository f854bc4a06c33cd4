#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

For each workload, runs a tiny-budget pass (--smoke) twice untraced and
once traced, and checks that every invocation exits 0 with a correct result
and no failed job, that the JSON summary carries exactly the metrics
BENCHMARK.json lists (end_to_end untraced, per_layer traced) with their
units, that each is also printed as a line, and that the result digest is
the same in all three invocations. Finally it checks that the benchmark
fails, without printing a result, in a directory holding only
BENCHMARK.json and the benchmark's files.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["campaign-large", "eval-matrix", "daemon-scan"]


def invoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError("%s trace=%d exited %d" % (
            workload, trace, proc.returncode))
    return proc.stdout.strip().splitlines()


def check_output(lines, expected, workload, trace):
    summary = json.loads(lines[-1])
    where = "%s trace=%d" % (workload, trace)
    assert summary["correct"] is True, where + ": not correct"
    assert summary["failed"] == 0, where + ": failed jobs"
    assert summary["attempted"] >= 1, where + ": nothing attempted"
    got = {name: m["unit"] for name, m in summary["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert got == want, "%s: metrics %s, expected %s" % (where, got, want)
    printed = {line.split()[1]: line.split()[3] for line in lines
               if line.startswith("metric ")}
    for name, unit in want.items():
        assert printed.get(name) == unit, "%s: %s not printed" % (where, name)
    digests = [line for line in lines if line.startswith("digest ")]
    assert len(digests) == 1, where + ": no digest line"
    return digests[0]


def check_bare_directory():
    """Without the repository's sources the benchmark must fail."""
    bare = tempfile.mkdtemp(prefix="selftest-bare-",
                            dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "campaign-large", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=180)
        assert proc.returncode != 0, "bare directory: exited 0"
        assert '"correct"' not in proc.stdout, "bare directory: printed"
    finally:
        shutil.rmtree(bare)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    for workload in WORKLOADS:
        digests = set()
        for trace in (0, 0, 1):
            expected = bench["per_layer" if trace else "end_to_end"]
            lines = invoke(workload, trace)
            digests.add(check_output(lines, expected, workload, trace))
        assert len(digests) == 1, "%s: digests differ: %s" % (
            workload, sorted(digests))
        print("ok %s %s" % (workload, digests.pop().split()[-1]))
    check_bare_directory()
    print("ok bare directory fails")


if __name__ == "__main__":
    main()
