#!/usr/bin/env bash
# Byte-compares the simulator's *simulated* statistics across two builds.
#
#   bench/byte_compare.sh BUILD_A [BUILD_B]
#
# Runs fig03 + fig12, the pinned-arrivals serve smokes — single-device, a
# 2-replica heterogeneous fleet, an overloaded fleet with streaming telemetry,
# and a pinned video-rate stream replay with incremental kernel maps — and a
# functional SparseResNet21 run of all three engines with session reuse, out
# of each build tree, then diffs every JSON artifact after stripping
# host-clock data:
#   - any object key containing "host" or "wall" (case-insensitive), the same
#     exemption the perf baseline gate applies (see src/prof IsHostTimeKey);
#   - Chrome-trace events on tid 0, the host wall-clock track.
# Everything that remains — simulated cycles, cache hits/misses, queue/SLO
# accounting, per-kernel aggregates — must match byte for byte.
#
# The functional engine leg also runs timing-only (--functional 0) out of the
# same build, and each engine's two snapshots are diffed after the same
# stripping: the functional flag moves payload work only, never the simulated
# program.
#
# The telemetry sinks (overload_timeline.jsonl, overload_incident.json) and
# the per-request causal-trace dump (overload_requests.jsonl) carry only
# simulated-clock data, so they byte-compare directly with cmp — no
# filtering. They are a hard gate: a telemetry or tracing change that lets
# host state leak into window contents, alert ordering, or request phase
# segments fails here.
#
# With one argument the suite runs twice out of the same build, the second
# time under GLIBC_TUNABLES=glibc.malloc.tcache_count=0, which reshuffles the
# host heap: simulated statistics must not notice, because the cache model
# keys on each device's own addresses (src/gpusim/device_memory.h), never on
# host pointers. With two arguments it is the host-optimisation gate: a
# host-side change may make the simulator faster, never change what it
# simulates.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 BUILD_A [BUILD_B]" >&2
  exit 2
fi
BUILD_A=$1
BUILD_B=${2:-$1}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
mkdir -p "$WORK/a" "$WORK/b"

# Workload scale pinned to the committed baseline's (record_baseline.sh / CI).
export MINUET_BENCH_POINTS=${MINUET_BENCH_POINTS:-8000}

run_suite() {
  local build=$1 out=$2
  "$build/bench/fig03_map_l2_hitratio" \
    --json="$out/fig03.json" --metrics="$out/fig03_metrics.json" > /dev/null
  "$build/bench/fig12_end_to_end" \
    --json="$out/fig12.json" --metrics="$out/fig12_metrics.json" > /dev/null
  "$build/tools/minuet_serve" --process poisson --rate 6000 --requests 80 \
    --seed 29 --dump-arrivals "$out/arrivals.json" > /dev/null
  "$build/tools/minuet_serve" --gpu 3090 --arrivals "$out/arrivals.json" \
    --queue-capacity 16 --max-batch 4 --json "$out/serve.json" \
    --trace "$out/serve_trace.json" --metrics "$out/serve_metrics.json" > /dev/null
  "$build/tools/minuet_serve" --pool 3090,a100 --routing least-loaded \
    --arrivals "$out/arrivals.json" --queue-capacity 16 --max-batch 4 \
    --json "$out/fleet.json" --trace "$out/fleet_trace.json" \
    --metrics "$out/fleet_metrics.json" > /dev/null
  # Overloaded fleet with streaming telemetry: tight queues force shedding so
  # burn-rate alerts fire and the flight recorder freezes an incident.
  "$build/tools/minuet_serve" --process poisson --rate 20000 --requests 120 \
    --seed 31 --dump-arrivals "$out/overload_arrivals.json" > /dev/null
  "$build/tools/minuet_serve" --pool 3090,a100 --routing least-loaded \
    --arrivals "$out/overload_arrivals.json" --queue-capacity 2 --max-batch 2 \
    --json "$out/overload.json" --timeline "$out/overload_timeline.jsonl" \
    --incident "$out/overload_incident.json" \
    --dump-requests "$out/overload_requests.jsonl" > /dev/null
  # Video-rate stream smoke: a pinned LiDAR-style sequence replayed as three
  # closed-loop streams on a 2-replica pool with incremental kernel maps.
  "$build/tools/minuet_dataset" sequence gen --points 600 --frames 6 \
    --channels 4 --seed 13 --churn 0.05 --out "$out/sequence.json" > /dev/null
  "$build/tools/minuet_serve" --stream "$out/sequence.json" --network tiny \
    --pool 3090,3090 --streams 3 --frame-period-us 4000 \
    --json "$out/stream.json" --metrics "$out/stream_metrics.json" \
    --dump-requests "$out/stream_requests.jsonl" > /dev/null
  # Functional engine leg: all three engines with real arithmetic, the session
  # record/replay path (--reuse) and SparseResNet21's linear head. Writes one
  # metrics snapshot per engine.
  "$build/tools/minuet_run" --network resnet21 --dataset s3dis --points 4000 \
    --engine all --functional 1 --reuse --repeat 2 \
    --metrics "$out/engines.json" > /dev/null
  # The same leg timing-only, for the functional-vs-timing diff below.
  "$build/tools/minuet_run" --network resnet21 --dataset s3dis --points 4000 \
    --engine all --functional 0 --reuse --repeat 2 \
    --metrics "$out/engines_timing.json" > /dev/null
}

echo "byte_compare: running suite from $BUILD_A"
run_suite "$BUILD_A" "$WORK/a"
if [[ $# -eq 1 ]]; then
  echo "byte_compare: running suite from $BUILD_B with a perturbed host heap"
  GLIBC_TUNABLES=glibc.malloc.tcache_count=0 run_suite "$BUILD_B" "$WORK/b"
else
  echo "byte_compare: running suite from $BUILD_B"
  run_suite "$BUILD_B" "$WORK/b"
fi

FILTER="$WORK/filter.py"
cat > "$FILTER" <<'PY'
import json
import sys


def strip(obj):
    if isinstance(obj, dict):
        return {k: strip(v) for k, v in obj.items()
                if 'host' not in k.lower() and 'wall' not in k.lower()}
    if isinstance(obj, list):
        return [strip(v) for v in obj]
    return obj


with open(sys.argv[1]) as f:
    data = json.load(f)
if isinstance(data, dict) and isinstance(data.get('traceEvents'), list):
    data['traceEvents'] = [
        e for e in data['traceEvents']
        if not (isinstance(e, dict) and e.get('tid') == 0)
    ]
with open(sys.argv[2], 'w') as f:
    json.dump(strip(data), f, sort_keys=True, indent=1)
PY

STATUS=0
# Telemetry sinks and the per-request causal-trace dump are pure
# simulated-clock data: compare raw bytes.
for name in overload_timeline.jsonl overload_incident.json \
            overload_requests.jsonl \
            sequence.json stream.json stream_requests.jsonl; do
  if cmp -s "$WORK/a/$name" "$WORK/b/$name"; then
    echo "byte_compare: $name OK"
  else
    echo "byte_compare: $name MISMATCH" >&2
    diff -u "$WORK/a/$name" "$WORK/b/$name" | head -40 >&2 || true
    STATUS=1
  fi
done
for name in fig03.json fig03_metrics.json fig12.json fig12_metrics.json \
            serve.json serve_trace.json serve_metrics.json \
            fleet.json fleet_trace.json fleet_metrics.json overload.json \
            stream_metrics.json engines.json.Minuet engines.json.TorchSparse \
            engines.json.MinkowskiEngine engines_timing.json.Minuet \
            engines_timing.json.TorchSparse engines_timing.json.MinkowskiEngine; do
  python3 "$FILTER" "$WORK/a/$name" "$WORK/a/$name.filtered"
  python3 "$FILTER" "$WORK/b/$name" "$WORK/b/$name.filtered"
  if cmp -s "$WORK/a/$name.filtered" "$WORK/b/$name.filtered"; then
    echo "byte_compare: $name OK"
  else
    echo "byte_compare: $name MISMATCH" >&2
    diff -u "$WORK/a/$name.filtered" "$WORK/b/$name.filtered" | head -40 >&2 || true
    STATUS=1
  fi
done

# Timing-only against functional, within each build's run (the .filtered
# files written above).
for side in a b; do
  for engine in Minuet TorchSparse MinkowskiEngine; do
    functional="$WORK/$side/engines.json.$engine.filtered"
    timing="$WORK/$side/engines_timing.json.$engine.filtered"
    if cmp -s "$functional" "$timing"; then
      echo "byte_compare: $side timing-only $engine OK"
    else
      echo "byte_compare: $side timing-only $engine MISMATCH" >&2
      diff -u "$functional" "$timing" | head -40 >&2 || true
      STATUS=1
    fi
  done
done

if [[ $STATUS -ne 0 ]]; then
  echo "byte_compare: FAILED — simulated statistics drifted" >&2
else
  echo "byte_compare: all simulated statistics byte-identical"
fi
exit $STATUS
