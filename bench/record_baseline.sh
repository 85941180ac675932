#!/usr/bin/env bash
# Record or check the committed performance baseline (BENCH_BASELINE.json).
#
# The baseline holds one --json report per bench below, run at a fixed
# workload scale, with host wall-clock keys (anything containing "host" or
# "wall") left out: they measure the machine, not the simulator. Simulated
# statistics are exact, because the cache model keys on each device's own
# addresses (src/gpusim/device_memory.h), so `minuet_prof check-baseline`
# compares them for equality and any difference is a violation.
#
# Usage:
#   bench/record_baseline.sh [BUILD_DIR [OUT_FILE]]
#       Runs every bench once and writes the baseline to OUT_FILE, then runs
#       every bench again and checks that second run against it: a simulated
#       value that varies between runs is a determinism bug, not something
#       to record.
#   bench/record_baseline.sh check BUILD_DIR [BASELINE]
#       Runs every bench once and checks the reports against BASELINE. This
#       is CI's perf-regression gate.
# BUILD_DIR defaults to build, OUT_FILE and BASELINE to BENCH_BASELINE.json.
# Reports are kept in BUILD_DIR/baseline_reports/{record,check}/BENCH.json.
set -euo pipefail

if [[ "${1:-}" == check ]]; then
  BUILD_DIR="${2:?usage: $0 check BUILD_DIR [BASELINE]}"
  BASELINE="${3:-BENCH_BASELINE.json}"
else
  BUILD_DIR="${1:-build}"
  BASELINE="${2:-BENCH_BASELINE.json}"
fi
export MINUET_BENCH_POINTS=8000

# hostperf is informational: its host_* keys are left out like every other
# host-time key, and its simulated keys (cycles, l2 counters) are exact.
BENCHES=(fig03_map_l2_hitratio fig05_gemm_grouping fig12_end_to_end serve_warm_loop serve_scheduler fleet_sweep stream_sequence hostperf)

PROF="$BUILD_DIR/tools/minuet_prof"
if [[ ! -x "$PROF" ]]; then
  echo "error: $PROF not built (run: cmake --build $BUILD_DIR --target minuet_prof)" >&2
  exit 2
fi

# run_benches DIR: one report per bench, DIR/BENCH.json.
reports=()
run_benches() {
  local dir="$BUILD_DIR/baseline_reports/$1" bench bin
  mkdir -p "$dir"
  reports=()
  for bench in "${BENCHES[@]}"; do
    bin="$BUILD_DIR/bench/$bench"
    if [[ ! -x "$bin" ]]; then
      echo "error: $bin not built" >&2
      exit 2
    fi
    echo "== $bench ($1, MINUET_BENCH_POINTS=$MINUET_BENCH_POINTS)"
    "$bin" --json="$dir/$bench.json" > /dev/null
    reports+=("$dir/$bench.json")
  done
}

if [[ "${1:-}" != check ]]; then
  run_benches record
  "$PROF" make-baseline "${reports[@]}" --out "$BASELINE"
fi
run_benches check
"$PROF" check-baseline "$BASELINE" "${reports[@]}"
