#!/usr/bin/env bash
# Record the committed performance baseline (BENCH_BASELINE.json).
#
# Runs each baseline bench RUNS times with --json output at a fixed workload
# scale, then folds the runs into per-metric {mean, noise} envelopes with
# `minuet_prof make-baseline`. CI re-runs the same benches at the same scale
# and gates merges with `minuet_prof check-baseline BENCH_BASELINE.json ...`.
#
# Simulated statistics are exact: the cache model keys on each device's own
# addresses (src/gpusim/device_memory.h), so every run of a bench produces
# the same simulated numbers. The script therefore fails if any simulated key
# comes out with a non-zero noise envelope — that is a determinism bug, not
# noise to record. Host wall-clock keys (anything containing "host" or
# "wall") are machine-dependent and are excluded from the envelope by
# make-baseline.
#
# Usage: bench/record_baseline.sh [BUILD_DIR [OUT_FILE]]
#   RUNS=N                 rounds per bench (default 5)
#   MINUET_BENCH_POINTS=N  workload scale (default 8000; must match CI)
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_BASELINE.json}"
RUNS="${RUNS:-5}"
export MINUET_BENCH_POINTS="${MINUET_BENCH_POINTS:-8000}"

# Keep this list in sync with the perf-regression job in .github/workflows/ci.yml.
# hostperf is informational: its host_* keys are excluded like every other
# host-time key, and its simulated keys (cycles, l2 counters) are exact.
BENCHES=(fig03_map_l2_hitratio fig05_gemm_grouping fig12_end_to_end serve_warm_loop serve_scheduler fleet_sweep stream_sequence hostperf)

PROF="$BUILD_DIR/tools/minuet_prof"
if [[ ! -x "$PROF" ]]; then
  echo "error: $PROF not built (run: cmake --build $BUILD_DIR --target minuet_prof)" >&2
  exit 2
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

reports=()
for bench in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built" >&2
    exit 2
  fi
  for run in $(seq 1 "$RUNS"); do
    out="$WORK/$run.$bench.json"
    echo "== $bench (run $run/$RUNS, MINUET_BENCH_POINTS=$MINUET_BENCH_POINTS)"
    "$bin" --json="$out" > /dev/null
    reports+=("$out")
  done
done

"$PROF" make-baseline "${reports[@]}" --out "$OUT"
echo "baseline written to $OUT"

# Every simulated key must be exact across runs.
python3 - "$OUT" <<'PY'
import json
import sys

noisy = []


def walk(obj, path):
    if isinstance(obj, dict):
        if set(obj) == {"mean", "noise"}:
            if obj["noise"] != 0:
                noisy.append(path)
            return
        for key, value in obj.items():
            walk(value, path + "/" + key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            walk(value, path + "[%d]" % i)


with open(sys.argv[1]) as f:
    walk(json.load(f), "")
if noisy:
    print("error: %d simulated keys vary across runs:" % len(noisy), file=sys.stderr)
    for path in noisy[:20]:
        print("  " + path, file=sys.stderr)
    sys.exit(1)
PY
