// Streaming-sequence benchmark: incremental kernel maps vs full rebuilds.
//
// A video-rate LiDAR stream hands the engine a new frame every few
// milliseconds, and each frame is the previous one under a rigid motion plus
// a small voxel churn (src/data/sequence.h). The incremental map builder
// (src/map/incremental.h) exploits that: instead of radix-sorting the frame's
// coordinates from scratch it rebiases the retained sorted key array by the
// packed motion delta and folds the churn in with one linear merge. This
// bench measures what that buys:
//
//   Table 1 (map level)    — per-frame sorted-array maintenance cost, full
//                            coordinate sort vs delta merge, across churn
//                            rates. The acceptance line: at churn <= 10% the
//                            delta path must be >= 2x cheaper in steady state.
//                            The high-churn row shows the threshold fallback
//                            (speedup ~1x: the builder re-sorts).
//   Table 2 (engine level) — whole-frame inference through a SequenceSession,
//                            incremental off vs on. The input sort is only
//                            part of the frame (gather/GEMM/scatter dominate),
//                            so the end-to-end win is smaller; the map-side
//                            columns isolate the part the delta path removes.
//
// Both paths produce bit-identical maps/results (CHECK-enforced inside the
// builder and the session); only the charged kernels differ. All reported
// numbers are simulated milliseconds and byte-compare across runs.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/point_cloud.h"
#include "src/core/weight_offsets.h"
#include "src/data/sequence.h"
#include "src/engine/engine.h"
#include "src/engine/sequence_session.h"
#include "src/gpusim/device_config.h"
#include "src/map/incremental.h"

namespace minuet {
namespace {

SequenceConfig MakeSequence(int64_t points, double churn) {
  SequenceConfig config;
  config.dataset = DatasetKind::kRandom;
  config.base_points = points;
  config.channels = 4;
  config.num_frames = 12;
  config.seed = 17;
  config.churn_rate = churn;
  config.max_step = 2;
  return config;
}

// Per-frame sorted-array maintenance cost at one churn rate: the full
// coordinate sort every frame vs the retained-array delta path. Frame 0 is
// excluded from both means (both pay the full sort there). Returns the
// steady-state speedup full/incremental.
double MapLevelRow(int64_t points, double churn, bench::JsonReport& report) {
  Sequence sequence = GenerateSequence(MakeSequence(points, churn));
  const std::vector<Coord3> offsets = MakeWeightOffsets(3, 1);

  DeviceConfig device_config = MakeRtx3090();
  Device full_device(device_config);
  Device incr_device(device_config);
  IncrementalMapBuilder full_builder;
  IncrementalMapBuilder incr_builder;

  double full_cycles = 0.0;
  double incr_cycles = 0.0;
  for (const SequenceFrame& frame : sequence.frames) {
    const std::vector<uint64_t> keys = PackCoords(frame.cloud.coords);
    IncrementalBuildResult full = full_builder.BuildFull(full_device, keys, offsets);
    IncrementalBuildResult incr;
    if (frame.frame == 0) {
      incr = incr_builder.BuildFull(incr_device, keys, offsets);
    } else {
      incr = incr_builder.BuildDelta(incr_device, PackDelta(frame.motion),
                                     PackCoords(frame.deleted), PackCoords(frame.inserted),
                                     keys, offsets);
      full_cycles += full.delta_stats.cycles;
      incr_cycles += incr.delta_stats.cycles;
    }
  }
  const int64_t steady_frames = static_cast<int64_t>(sequence.frames.size()) - 1;
  const double full_ms = device_config.CyclesToMillis(full_cycles / steady_frames);
  const double incr_ms = device_config.CyclesToMillis(incr_cycles / steady_frames);
  const double speedup = incr_ms > 0.0 ? full_ms / incr_ms : 0.0;
  bench::Row("%-8.2f %10lld %12.4f %12.4f %9.2fx %6lld/%lld", churn,
             static_cast<long long>(points), full_ms, incr_ms, speedup,
             static_cast<long long>(incr_builder.chain().frames_incremental()),
             static_cast<long long>(steady_frames));
  report.AddRow();
  report.Set("table", std::string("map_build"));
  report.Set("churn", churn);
  report.Set("points", points);
  report.Set("full_sort_ms", full_ms);
  report.Set("delta_merge_ms", incr_ms);
  report.Set("speedup", speedup);
  report.Set("frames_incremental", incr_builder.chain().frames_incremental());
  report.Set("frames_rebuilt", incr_builder.chain().frames_rebuilt() - 1);  // minus frame 0
  return speedup;
}

// Whole-frame inference over the same sequence, incremental sessions off/on.
void EngineLevelRow(int64_t points, double churn, bool incremental,
                    bench::JsonReport& report) {
  Sequence sequence = GenerateSequence(MakeSequence(points, churn));
  const DeviceConfig device_config = MakeRtx3090();

  EngineConfig config;
  config.kind = EngineKind::kMinuet;
  config.functional = false;  // timing-only: same charged kernels, less host work
  Engine engine(config, device_config);
  engine.Prepare(MakeTinyUNet(sequence.config.channels), sequence.config.seed);

  SequenceSession session(engine, incremental);

  double total_cycles = 0.0;
  double map_cycles = 0.0;
  double delta_cycles = 0.0;
  for (const SequenceFrame& frame : sequence.frames) {
    FrameRunResult result =
        frame.frame == 0
            ? session.RunFrame(frame.cloud)
            : session.RunFrame(frame.cloud, frame.motion, frame.deleted, frame.inserted);
    if (frame.frame == 0) {
      continue;  // steady state only: frame 0 is a cold full build either way
    }
    total_cycles += result.run.total.TotalCycles();
    map_cycles += result.run.total.MapCycles();
    delta_cycles += result.run.total.map_delta;
  }
  const int64_t steady_frames = static_cast<int64_t>(sequence.frames.size()) - 1;
  const double frame_ms = device_config.CyclesToMillis(total_cycles / steady_frames);
  const double map_ms = device_config.CyclesToMillis(map_cycles / steady_frames);
  const double delta_ms = device_config.CyclesToMillis(delta_cycles / steady_frames);
  bench::Row("%-14s %10lld %10.3f %10.4f %10.4f %8lld %8lld",
             incremental ? "incremental" : "full-sort", static_cast<long long>(points),
             frame_ms, map_ms, delta_ms,
             static_cast<long long>(session.chain().frames_incremental()),
             static_cast<long long>(session.chain().frames_rebuilt()));
  report.AddRow();
  report.Set("table", std::string("engine_frame"));
  report.Set("mode", std::string(incremental ? "incremental" : "full_sort"));
  report.Set("points", points);
  report.Set("frame_ms", frame_ms);
  report.Set("map_ms", map_ms);
  report.Set("map_delta_ms", delta_ms);
  report.Set("frames_incremental", session.chain().frames_incremental());
  report.Set("frames_rebuilt", session.chain().frames_rebuilt());
}

int Main(int argc, char** argv) {
  const bench::Flags flags("stream_sequence", {bench::Flag::kJson}, argc, argv);
  bench::JsonReport report(flags);
  bench::PrintTitle("stream_sequence",
                    "incremental kernel maps on a temporally coherent frame stream");
  const int64_t points = bench::PointsFromEnv(100000);
  bench::PrintNote("random dataset, 12 frames, rigid motion <= 2 voxels/frame; steady state "
                   "excludes frame 0");
  report.Meta("device", std::string("RTX 3090"));
  report.Meta("points", points);
  report.Meta("frames", static_cast<int64_t>(12));

  std::printf("\nTable 1: per-frame sorted-array maintenance (map level)\n");
  bench::Row("%-8s %10s %12s %12s %10s %8s", "churn", "points", "full(ms)", "delta(ms)",
             "speedup", "incr/N");
  bench::Rule();
  bool ok = true;
  for (double churn : {0.00, 0.02, 0.05, 0.10}) {
    const double speedup = MapLevelRow(points, churn, report);
    // The acceptance line: at <= 10% churn the delta path must be at least
    // 2x cheaper than the per-frame full sort in steady state.
    if (speedup < 2.0) {
      std::fprintf(stderr, "FAIL: churn %.2f speedup %.2fx < 2x\n", churn, speedup);
      ok = false;
    }
  }
  // Past the rebuild threshold the builder falls back to the full sort, so
  // the speedup collapses to ~1x by construction (never below).
  MapLevelRow(points, 0.60, report);
  bench::Rule();
  std::printf("churn <= 0.10 rows must show >= 2x: %s\n", ok ? "ok" : "FAIL");

  std::printf("\nTable 2: whole-frame inference through a SequenceSession (TinyUNet)\n");
  bench::Row("%-14s %10s %10s %10s %10s %8s %8s", "mode", "points", "frame(ms)", "map(ms)",
             "delta(ms)", "incr", "rebuilt");
  bench::Rule();
  const int64_t engine_points = std::min<int64_t>(points, 20000);
  EngineLevelRow(engine_points, 0.05, /*incremental=*/false, report);
  EngineLevelRow(engine_points, 0.05, /*incremental=*/true, report);
  bench::Rule();

  ok = report.Write() && ok;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) { return minuet::Main(argc, argv); }
