// Host-performance microbench for the gpusim execution core.
//
// Everything else in bench/ measures *simulated* quantities; this binary
// measures the simulator itself — host wall-clock per scenario and a
// sim-cycles-per-host-second throughput figure — over the host hot paths the
// DESIGN.md "Host performance" section describes: line accounting over device
// addresses, L2 set lookup, and launch overhead (name interning + callable
// dispatch).
//
// All wall-clock-derived keys carry the host_ prefix, so they fall under the
// established host-time exemption in the perf baseline gate (bench/
// check_baseline.py strips keys containing "host"/"wall"): host throughput is
// recorded as an informational signal, never as a bit-exact expectation. The
// simulated keys (cycles, l2 hits/misses) are deterministic — every buffer is
// device memory and the touch order is fixed — and do byte-compare.
//
// Scenarios:
//   stream              contiguous sweeps over one large buffer: the line loop,
//                       L1 and L2 cost of the serving-path shape.
//   strided             strided 8-byte element touches, each repeated four
//                       times (the per-lane metadata shape): per-call overhead
//                       of sub-line accesses.
//   cache_pressure      random single-line touches over a footprint larger
//                       than the L2; every touch reaches the set-lookup path.
//   launch_churn        many tiny kernels; measures per-launch fixed host cost
//                       (interning, aggregate record, no std::function churn).
//   serve_telemetry_*   a synthetic serving event stream replayed with and
//                       without a ServeTelemetry attached; the pair bounds the
//                       per-event/per-window host tax minuet_serve --timeline
//                       adds to the scheduler loop.
//   serve_reqtrace_*    the same stream replayed with and without a
//                       ReqTraceRecorder driven at the admit/dispatch/
//                       completion points; the pair bounds the per-request
//                       host tax of always-on causal phase tracing (the
//                       segment-sum CHECK included).
//   map_incremental_*   a temporally coherent frame sequence's sorted key
//                       array maintained frame to frame: `off` re-sorts every
//                       frame (the full radix-sort host loop), `on` runs the
//                       rebias + delta-merge kernels over the retained array
//                       (src/map/incremental.h). The pair measures the host
//                       side of the streaming map path; sim_cycles also
//                       shrinks on the `on` row (that is the point of the
//                       feature, bench/stream_sequence quantifies it).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/point_cloud.h"
#include "src/data/sequence.h"
#include "src/gpusim/device.h"
#include "src/gpusim/device_config.h"
#include "src/gpusort/radix_sort.h"
#include "src/map/incremental.h"
#include "src/serve/reqtrace.h"
#include "src/serve/scheduler.h"
#include "src/serve/telemetry.h"
#include "src/util/timer.h"

namespace minuet {
namespace {

// A synthetic config with the RTX 2070 Super's L2 geometry (4 MiB / 16 ways /
// 128 B lines = 2048 sets, a power of two), so the CacheSim mask path is the
// one measured; the other presets take the modulo. Everything else mirrors
// the RTX 3090 model.
DeviceConfig MakeHostperfConfig() {
  DeviceConfig config = MakeRtx3090();
  config.name = "hostperf-pow2";
  config.l2_bytes = 4 << 20;
  return config;
}

struct Scenario {
  const char* name;
  double host_ms = 0.0;
  double sim_cycles = 0.0;
  uint64_t l2_hits = 0;
  uint64_t l2_misses = 0;
  int64_t launches = 0;
};

// Contiguous read sweeps: each block reads a 64 KiB slice in 128 B chunks,
// repeated over several passes.
Scenario RunStream(const char* name, int64_t mib, int passes) {
  Device device(MakeHostperfConfig());
  DeviceVector<uint8_t> buffer(static_cast<size_t>(mib) << 20, device.memory());
  const int64_t slice = 64 << 10;
  const int64_t blocks = static_cast<int64_t>(buffer.size()) / slice;
  Scenario s;
  s.name = name;
  WallTimer timer;
  for (int pass = 0; pass < passes; ++pass) {
    KernelStats stats =
        device.Launch("hostperf/stream", LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
          const uint8_t* base = buffer.data() + ctx.block_index() * slice;
          for (int64_t offset = 0; offset < slice; offset += 128) {
            ctx.GlobalRead(base + offset, 128);
          }
        });
    s.sim_cycles += stats.cycles;
    s.l2_hits += stats.l2_hits;
    s.l2_misses += stats.l2_misses;
    ++s.launches;
  }
  s.host_ms = timer.ElapsedMillis();
  return s;
}

// Strided 8-byte element touches: each element is read four times in a row
// (the per-lane metadata shape), with a 40-byte stride so elements straddle
// line boundaries unevenly.
Scenario RunStrided(const char* name, int64_t mib, int passes) {
  Device device(MakeHostperfConfig());
  DeviceVector<uint8_t> buffer(static_cast<size_t>(mib) << 20, device.memory());
  const int64_t slice = 64 << 10;
  const int64_t blocks = static_cast<int64_t>(buffer.size()) / slice;
  Scenario s;
  s.name = name;
  WallTimer timer;
  for (int pass = 0; pass < passes; ++pass) {
    KernelStats stats =
        device.Launch("hostperf/strided", LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
          const uint8_t* base = buffer.data() + ctx.block_index() * slice;
          for (int64_t offset = 0; offset + 8 <= slice; offset += 40) {
            for (int repeat = 0; repeat < 4; ++repeat) {
              ctx.GlobalRead(base + offset, 8);
            }
          }
        });
    s.sim_cycles += stats.cycles;
    s.l2_hits += stats.l2_hits;
    s.l2_misses += stats.l2_misses;
    ++s.launches;
  }
  s.host_ms = timer.ElapsedMillis();
  return s;
}

// Random-order line touches over a footprint ~4x the L2: a deterministic
// xorshift walk, so misses and evictions dominate and most accesses scan and
// shift their whole set.
Scenario RunCachePressure(const char* name, int64_t touches) {
  Device device(MakeHostperfConfig());
  DeviceVector<uint8_t> buffer(16 << 20, device.memory());
  const uint64_t lines = buffer.size() / 128;
  Scenario s;
  s.name = name;
  WallTimer timer;
  KernelStats stats =
      device.Launch("hostperf/pressure", LaunchDims{64, 128, 0}, [&](BlockCtx& ctx) {
        uint64_t state = 0x9e3779b9u + static_cast<uint64_t>(ctx.block_index());
        const int64_t per_block = touches / 64;
        for (int64_t i = 0; i < per_block; ++i) {
          state ^= state << 13;
          state ^= state >> 7;
          state ^= state << 17;
          ctx.GlobalRead(buffer.data() + (state % lines) * 128, 128);
        }
      });
  s.sim_cycles = stats.cycles;
  s.l2_hits = stats.l2_hits;
  s.l2_misses = stats.l2_misses;
  s.launches = 1;
  s.host_ms = timer.ElapsedMillis();
  return s;
}

// Many tiny launches: per-launch host overhead (name resolution, stats
// recording, callable dispatch) dominates over the single line touched.
Scenario RunLaunchChurn(const char* name, int launches) {
  Device device(MakeHostperfConfig());
  DeviceVector<uint8_t> buffer(4 << 10, device.memory());
  Scenario s;
  s.name = name;
  WallTimer timer;
  for (int i = 0; i < launches; ++i) {
    static const KernelId kChurn = KernelId::Intern("hostperf/churn");
    KernelStats stats = device.Launch(kChurn, LaunchDims{1, 128, 0}, [&](BlockCtx& ctx) {
      ctx.GlobalRead(buffer.data(), 128);
      ctx.Compute(128);
    });
    s.sim_cycles += stats.cycles;
    s.l2_hits += stats.l2_hits;
    s.l2_misses += stats.l2_misses;
    ++s.launches;
  }
  s.host_ms = timer.ElapsedMillis();
  return s;
}

// Streaming-telemetry ingest tax: a synthetic serving trace (arithmetic
// arrivals, one dispatch per four requests, completions, ~7.7 events per
// 1 ms window) replayed through the exact hooks the fleet loop calls. The
// `attached` run pays AdvanceTo window closes + health evaluation + counter/
// gauge/digest recording; the detached run pays only the trace arithmetic and
// the null-pointer guards, so on-minus-off is the tax per event, and on/
// windows is the host ms per window. Every non-host key is computed
// arithmetically — no simulated cycles — so the rows byte-compare exactly.
Scenario RunServeTelemetry(const char* name, bool attached, int64_t requests) {
  serve::TelemetryConfig tcfg;
  tcfg.interval_us = 1000.0;
  serve::ServeTelemetry telemetry(tcfg);
  serve::ServeTelemetry* t = attached ? &telemetry : nullptr;
  serve::SchedulerConfig sched;
  Scenario s;
  s.name = name;
  double sink = 0.0;
  WallTimer timer;
  if (t != nullptr) {
    t->BeginRun(/*num_devices=*/2, sched);
  }
  double now = 0.0;
  for (int64_t i = 0; i < requests; ++i) {
    now += 130.0;
    const int dev = static_cast<int>(i & 1);
    const double latency_us = 400.0 + static_cast<double>(i % 31) * 10.0;
    const double queue_us = 40.0 + static_cast<double>(i % 7);
    sink += latency_us + queue_us;  // both variants pay the trace arithmetic
    if (t != nullptr) {
      t->AdvanceTo(now);
      t->OnArrival(now, dev, i, i % 5);
      if ((i & 3) == 3) {
        // Flight end 2.6 windows out, so busy attribution walks windows.
        t->OnDispatch(now, dev, i >> 2, /*batch_size=*/4, /*warm=*/2,
                      /*plan_hits=*/3, /*plan_misses=*/1, now + 2600.0, i % 5);
      }
      t->OnCompletion(now, dev, i, queue_us, queue_us * 0.25, latency_us, (i % 17) != 0);
    }
  }
  if (t != nullptr) {
    t->Finish();
    s.launches = static_cast<int64_t>(telemetry.series().closed().size());
  }
  s.host_ms = timer.ElapsedMillis();
  s.sim_cycles = sink;  // deterministic checksum; keeps the detached loop honest
  return s;
}

// Request-tracing recording tax: the telemetry bench's synthetic serving
// stream (arithmetic arrivals every 130 us, batches of four, 400 us service)
// replayed through a ReqTraceRecorder at the same points the fleet loop
// drives it — admit, per-member finalize (with the segment-sum CHECK), batch
// begin/end. The `off` run pays only the stream arithmetic, so on-minus-off
// is the per-request cost of always-on causal tracing; `launches` carries the
// finalized-trace count for the on row. No simulated cycles anywhere: the
// non-host keys byte-compare exactly.
Scenario RunReqTrace(const char* name, bool attached, int64_t requests) {
  serve::ReqTraceRecorder recorder;
  recorder.Reset(/*num_devices=*/1);
  Scenario s;
  s.name = name;
  double sink = 0.0;
  int64_t finalized = 0;
  WallTimer timer;
  int64_t now_ns = 0;
  int64_t flight_completion_ns = -1;  // <0: no flight outstanding
  std::vector<std::pair<int64_t, int64_t>> queue;  // (id, arrival_ns)
  for (int64_t i = 0; i < requests; ++i) {
    now_ns += 130000;
    // Completions sequence before arrivals, as in the real event loop.
    if (attached && flight_completion_ns >= 0 && flight_completion_ns <= now_ns) {
      recorder.EndBatch(0, flight_completion_ns);
      flight_completion_ns = -1;
    }
    if (attached) {
      recorder.AdmitRequest(0, i, now_ns);
    }
    queue.emplace_back(i, now_ns);
    sink += 300.0 + static_cast<double>(i % 5) * 10.0;  // both variants pay this
    if (queue.size() == 4) {
      // Batch spans 520 us of arrivals, serves in 400: the flight always
      // closes before the next dispatch, members 2-4 arrive mid-flight.
      const int64_t dispatch_ns = now_ns;
      const int64_t completion_ns = now_ns + 400000;
      if (attached) {
        for (const auto& [id, arrival_ns] : queue) {
          serve::ExecPhaseCycles cycles;
          cycles.map = 1.0;
          cycles.gather = 2.0;
          cycles.gemm = 5.0;
          cycles.scatter = 1.5;
          cycles.other = 0.5;
          const int64_t own_ns = 300000 + (id % 5) * 10000;
          recorder.FinalizeRequest(0, id, arrival_ns, dispatch_ns, completion_ns, own_ns,
                                   cycles);
          ++finalized;
        }
        recorder.BeginBatch(0, dispatch_ns);
        flight_completion_ns = completion_ns;
      }
      queue.clear();
    }
  }
  s.host_ms = timer.ElapsedMillis();
  s.sim_cycles = sink;  // deterministic checksum; keeps the detached loop honest
  s.launches = finalized;
  return s;
}

// Streaming-map maintenance pair: a pre-generated frame sequence's packed
// key lists replayed through the two maintenance paths. `off` radix-sorts
// every frame from scratch (the per-frame cost the incremental path removes);
// `on` keeps the sorted array and advances it with the rebias + delta-merge
// kernels. Sequence generation and key packing happen before the timer, so
// host_ms isolates the maintenance loop itself. Simulated keys (cycles, L2,
// launches) are deterministic and byte-compare.
Scenario RunMapIncremental(const char* name, bool incremental, int64_t points, int frames) {
  SequenceConfig cfg;
  cfg.base_points = points;
  cfg.num_frames = frames;
  cfg.seed = 5;
  cfg.churn_rate = 0.05;
  Sequence sequence = GenerateSequence(cfg);
  struct FrameKeys {
    std::vector<uint64_t> keys;
    std::vector<uint64_t> deleted;
    std::vector<uint64_t> inserted;
    uint64_t motion = 0;
  };
  std::vector<FrameKeys> packed;
  packed.reserve(sequence.frames.size());
  for (const SequenceFrame& frame : sequence.frames) {
    FrameKeys fk;
    fk.keys = PackCoords(frame.cloud.coords);
    fk.deleted = PackCoords(frame.deleted);
    fk.inserted = PackCoords(frame.inserted);
    fk.motion = PackDelta(frame.motion);
    packed.push_back(std::move(fk));
  }

  Device device(MakeHostperfConfig());
  Scenario s;
  s.name = name;
  WallTimer timer;
  // Frame 0 arrives sorted.
  DeviceVector<uint64_t> retained = ToDevice(device.memory(), packed[0].keys);
  for (size_t f = 1; f < packed.size(); ++f) {
    if (incremental) {
      KernelStats stats = ChargeDeltaMerge(device, retained, packed[f].motion,
                                           packed[f].deleted, packed[f].inserted);
      s.sim_cycles += stats.cycles;
      s.l2_hits += stats.l2_hits;
      s.l2_misses += stats.l2_misses;
      s.launches += stats.num_launches;
    } else {
      DeviceVector<uint64_t> keys = ToDevice(device.memory(), packed[f].keys);
      DeviceVector<uint32_t> values(keys.size(), device.memory());
      std::iota(values.begin(), values.end(), 0u);
      SortStats stats = RadixSortCoordPairs(device, keys, values);
      s.sim_cycles += stats.kernels.cycles;
      s.l2_hits += stats.kernels.l2_hits;
      s.l2_misses += stats.kernels.l2_misses;
      s.launches += stats.kernels.num_launches;
    }
  }
  s.host_ms = timer.ElapsedMillis();
  return s;
}

void Report(bench::JsonReport& report, const Scenario& s) {
  const double host_seconds = s.host_ms / 1e3;
  const double cycles_per_host_s = host_seconds > 0.0 ? s.sim_cycles / host_seconds : 0.0;
  bench::Row("%-18s %10.1f %14.3e %12lld %10lld", s.name, s.host_ms, cycles_per_host_s,
             static_cast<long long>(s.l2_hits + s.l2_misses), static_cast<long long>(s.launches));
  report.AddRow();
  report.Set("scenario", std::string(s.name));
  report.Set("host_ms", s.host_ms);
  report.Set("sim_cycles_per_host_second", cycles_per_host_s);
  report.Set("sim_cycles", s.sim_cycles);
  report.Set("l2_hits", static_cast<int64_t>(s.l2_hits));
  report.Set("l2_misses", static_cast<int64_t>(s.l2_misses));
  report.Set("launches", s.launches);
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) {
  using namespace minuet;
  const bench::Flags flags("hostperf", {bench::Flag::kJson}, argc, argv);
  bench::JsonReport report(flags);
  bench::PrintTitle("Hostperf", "host wall-clock of the simulator's own hot paths");
  bench::PrintNote("host_* keys are wall-clock (exempt from the baseline gate);");
  bench::PrintNote("sim_cycles / l2 counters are deterministic and byte-compare");
  const int64_t scale = bench::PointsFromEnv(100000);
  // Map the generic point scale onto buffer sizes / touch counts so
  // MINUET_BENCH_POINTS shrinks this bench like the others. Default: 32 MiB
  // sweeps, 4M pressure touches, 20k churn launches.
  const int64_t mib = std::max<int64_t>(4, 32 * scale / 100000);
  const int pressure_touches = static_cast<int>(std::max<int64_t>(1 << 18, 4194304 * scale / 100000));
  const int churn = static_cast<int>(std::max<int64_t>(1000, 20000 * scale / 100000));
  const int64_t telemetry_requests = std::max<int64_t>(20000, 200000 * scale / 100000);
  report.Meta("mib", mib);
  report.Meta("pressure_touches", static_cast<int64_t>(pressure_touches));
  report.Meta("churn_launches", static_cast<int64_t>(churn));
  report.Meta("telemetry_requests", telemetry_requests);

  bench::Row("%-18s %10s %14s %12s %10s", "scenario", "host_ms", "cyc/host_s", "l2_touches",
             "launches");
  bench::Rule();
  Report(report, RunStream("stream", mib, /*passes=*/3));
  Report(report, RunStrided("strided", mib, /*passes=*/2));
  Report(report, RunCachePressure("cache_pressure", pressure_touches));
  Report(report, RunLaunchChurn("launch_churn", churn));
  // Telemetry-tax pair: `launches` is the closed-window count for the on row,
  // so host_ms / launches is the per-window overhead the baseline tracks.
  Report(report, RunServeTelemetry("serve_telemetry_off", /*attached=*/false,
                                   telemetry_requests));
  Report(report, RunServeTelemetry("serve_telemetry_on", /*attached=*/true,
                                   telemetry_requests));
  // Request-trace tax pair: on-minus-off host ms over `launches` finalized
  // traces is the per-request cost of always-on causal tracing.
  Report(report, RunReqTrace("serve_reqtrace_off", /*attached=*/false,
                             telemetry_requests));
  Report(report, RunReqTrace("serve_reqtrace_on", /*attached=*/true,
                             telemetry_requests));
  // Streaming-map pair: per-frame full re-sort vs retained-array delta merge
  // over the same 5%-churn sequence.
  const int64_t seq_points = std::max<int64_t>(4096, scale);
  report.Meta("sequence_points", seq_points);
  Report(report, RunMapIncremental("map_incremental_off", /*incremental=*/false, seq_points,
                                   /*frames=*/8));
  Report(report, RunMapIncremental("map_incremental_on", /*incremental=*/true, seq_points,
                                   /*frames=*/8));
  bench::Rule();
  return report.Write() ? 0 : 1;
}
