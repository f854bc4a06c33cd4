#!/usr/bin/env bash
# Reproduce harness: runs every figure/table bench at a fixed, CI-sized
# configuration with fixed seeds and diffs the (volatile-line-stripped)
# output against the checked-in goldens in bench/golden/.
#
#   bench/reproduce.sh <build_dir>            # run + diff (the CI smoke)
#   bench/reproduce.sh <build_dir> --update   # regenerate the goldens
#
# The configurations are deliberately small (minutes on one core): the point
# of this harness is bit-for-bit reproducibility of the whole bench surface —
# any silent change to campaign semantics fails the diff — not paper-scale
# numbers. Paper-scale runs use the benches' default arguments.
#
# Volatile lines (worker counts, wall clock) are stripped exactly as the CI
# determinism diffs strip them.
set -u -o pipefail

BUILD_DIR=${1:?usage: reproduce.sh <build_dir> [--update]}
MODE=${2:-check}
ROOT_DIR=$(cd "$(dirname "$0")/.." && pwd)
GOLDEN_DIR="$ROOT_DIR/bench/golden"
OUT_DIR="$BUILD_DIR/reproduce"
mkdir -p "$OUT_DIR" "$GOLDEN_DIR"

strip_volatile() {
  grep -v -e "worker" -e "wall clock"
}

# name | command line (relative to the build dir)
RUNS=(
  "fig5|fig5_coverage_over_time 4 2 1 1"
  "fig6|fig6_overall_coverage 4 2 1 1"
  "fig6_islands|fig6_overall_coverage 3 2 1 1 40"
  "fig7|fig7_ablation 4 1"
  "table3|table3_bug_detection 24 150 1"
  "table4|table4_real_world 6 200 1"
)

status=0
for run in "${RUNS[@]}"; do
  name=${run%%|*}
  cmd=${run#*|}
  out="$OUT_DIR/$name.txt"
  echo "[reproduce] $name: $cmd"
  # shellcheck disable=SC2086
  if ! (cd "$BUILD_DIR" && ./$cmd) 2>/dev/null | strip_volatile > "$out"; then
    echo "[reproduce] FAILED to run $name" >&2
    status=1
    continue
  fi
  golden="$GOLDEN_DIR/$name.txt"
  if [ "$MODE" = "--update" ]; then
    cp "$out" "$golden"
    echo "[reproduce] updated $golden"
  elif [ ! -f "$golden" ]; then
    echo "[reproduce] MISSING golden $golden (run with --update)" >&2
    status=1
  elif ! diff -u "$golden" "$out"; then
    echo "[reproduce] DIFF in $name — campaign semantics changed" >&2
    status=1
  fi
done

# Fan-out leg: fig6 with speculative expansion K=4 (trailing `4` = fanout)
# must be bit-for-bit identical whether the service uses 1 worker or 4 — K
# widens the schedule, worker counts must still never touch it.
if [ "$MODE" != "--update" ]; then
  echo "[reproduce] fig6 fan-out K=4 worker-count independence"
  (cd "$BUILD_DIR" && ./fig6_overall_coverage 4 2 1 1 0 4) \
    2>/dev/null | strip_volatile > "$OUT_DIR/fig6_fanout_w1.txt"
  (cd "$BUILD_DIR" && ./fig6_overall_coverage 4 2 1 4 0 4) \
    2>/dev/null | strip_volatile > "$OUT_DIR/fig6_fanout_w4.txt"
  if ! diff -u "$OUT_DIR/fig6_fanout_w1.txt" "$OUT_DIR/fig6_fanout_w4.txt"
  then
    echo "[reproduce] DIFF: fan-out results depend on worker count" >&2
    status=1
  fi
fi

# Timing leg: the substrate micro-benches, written as BENCH_<name>.json in
# the output dir. These are wall-clock numbers — volatile by nature — so
# they are never diffed against goldens; they exist so CI (and local runs)
# archive a machine-readable perf trail next to the reproducibility diffs.
if [ -x "$BUILD_DIR/micro_substrate" ]; then
  echo "[reproduce] timing: micro_substrate hot-path benches"
  bench_json="$OUT_DIR/bench_raw.json"
  if (cd "$BUILD_DIR" && ./micro_substrate \
        --benchmark_filter='BM_DispatchLoop|BM_CampaignHundredExecs' \
        --benchmark_min_time=0.3 \
        --benchmark_format=json) 2>/dev/null > "$bench_json"; then
    # One BENCH_<name>.json per benchmark: {"name", "ns_per_op",
    # "execs_per_sec"} (execs/sec = 1e9/ns_per_op; each iteration of these
    # benches is one dispatch loop resp. one hundred-exec campaign).
    python3 - "$bench_json" "$OUT_DIR" <<'PYEOF'
import json, re, sys
raw, out_dir = sys.argv[1], sys.argv[2]
with open(raw) as f:
    report = json.load(f)
for bench in report.get("benchmarks", []):
    if bench.get("run_type") == "aggregate":
        continue
    name = bench["name"]
    ns = bench["real_time"]  # time_unit is ns for these benches
    slug = re.sub(r"[^A-Za-z0-9_]", "_", name)
    with open(f"{out_dir}/BENCH_{slug}.json", "w") as f:
        json.dump({"name": name,
                   "ns_per_op": ns,
                   "execs_per_sec": 1e9 / ns if ns > 0 else 0.0},
                  f, indent=2)
        f.write("\n")
    print(f"[reproduce]   {name}: {ns:.0f} ns/op")
PYEOF
  else
    echo "[reproduce] WARN: micro_substrate run failed (timing leg skipped)" >&2
  fi
else
  echo "[reproduce] micro_substrate not built: timing leg skipped"
fi

if [ $status -eq 0 ]; then
  echo "[reproduce] OK — all bench outputs match the goldens"
fi
exit $status
