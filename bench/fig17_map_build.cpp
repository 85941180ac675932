// Figure 17: build process of the Map step — the time to build the hash
// tables (prior engines) versus the time to radix-sort the source array
// (Minuet), as the point count grows. An extra streaming column shows the
// incremental path: on a temporally coherent frame sequence the sorted array
// is maintained (rebias + delta merge at 5% churn) instead of re-sorted.
#include <cstdio>
#include <memory>
#include <numeric>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/point_cloud.h"
#include "src/core/weight_offsets.h"
#include "src/data/generators.h"
#include "src/data/sequence.h"
#include "src/gpusim/device_config.h"
#include "src/gpusort/radix_sort.h"
#include "src/map/hash_map.h"
#include "src/map/incremental.h"

namespace minuet {
namespace {

void RunSweep(DatasetKind dataset, const std::vector<int64_t>& sizes,
              bench::JsonReport& report) {
  std::printf("\ndataset: %s\n", DatasetName(dataset));
  bench::Row("%-10s %-24s %12s %10s", "points", "engine", "build(ms)", "vs Minuet");
  bench::Rule();
  for (int64_t n : sizes) {
    auto coords = GenerateCoords(dataset, n, /*seed=*/11);
    auto keys = PackCoords(coords);

    // Minuet: radix sort of (key, index) pairs.
    double minuet_ms;
    {
      Device device(MakeRtx3090());
      DeviceVector<uint64_t> k = ToDevice(device.memory(), keys);
      DeviceVector<uint32_t> v(k.size(), device.memory());
      std::iota(v.begin(), v.end(), 0u);
      SortStats stats = RadixSortCoordPairs(device, k, v);
      minuet_ms = device.config().CyclesToMillis(stats.kernels.cycles);
    }

    struct Table {
      const char* label;
      HashTableKind kind;
    };
    std::vector<Table> tables = {{"MinkowskiEngine(hash)", HashTableKind::kLinearProbe},
                                 {"TorchSparse(hash)", HashTableKind::kCuckoo},
                                 {"Open3D(hash)", HashTableKind::kSpatial}};
    for (auto& t : tables) {
      Device device(MakeRtx3090());
      const DeviceVector<uint64_t> device_keys = ToDevice(device.memory(), keys);
      KernelStats stats = BuildEngineHashTable(device, t.kind, device_keys, nullptr);
      double ms = device.config().CyclesToMillis(stats.cycles);
      bench::Row("%-10lld %-24s %12.3f %9.2fx", static_cast<long long>(keys.size()), t.label,
                 ms, ms / minuet_ms);
      report.AddRow();
      report.Set("dataset", std::string(DatasetName(dataset)));
      report.Set("points", static_cast<int64_t>(keys.size()));
      report.Set("engine", std::string(t.label));
      report.Set("build_ms", ms);
      report.Set("vs_minuet", ms / minuet_ms);
    }
    bench::Row("%-10lld %-24s %12.3f %9.2fx", static_cast<long long>(keys.size()),
               "Minuet(sort)", minuet_ms, 1.0);
    report.AddRow();
    report.Set("dataset", std::string(DatasetName(dataset)));
    report.Set("points", static_cast<int64_t>(keys.size()));
    report.Set("engine", std::string("Minuet(sort)"));
    report.Set("build_ms", minuet_ms);
    report.Set("vs_minuet", 1.0);

    // Streaming column: frame t's sorted array maintained from frame t-1
    // (rebias + delta merge at 5% churn, src/map/incremental.h) instead of
    // re-sorted — the steady-state per-frame cost on a video sequence.
    {
      SequenceConfig seq;
      seq.dataset = dataset;
      seq.base_points = n;
      seq.num_frames = 4;
      seq.seed = 11;
      seq.churn_rate = 0.05;
      Sequence sequence = GenerateSequence(seq);
      const std::vector<Coord3> offsets = MakeWeightOffsets(3, 1);
      Device device(MakeRtx3090());
      IncrementalMapBuilder builder;
      double delta_cycles = 0.0;
      for (const SequenceFrame& frame : sequence.frames) {
        const std::vector<uint64_t> frame_keys = PackCoords(frame.cloud.coords);
        if (frame.frame == 0) {
          builder.BuildFull(device, frame_keys, offsets);
        } else {
          IncrementalBuildResult r =
              builder.BuildDelta(device, PackDelta(frame.motion), PackCoords(frame.deleted),
                                 PackCoords(frame.inserted), frame_keys, offsets);
          delta_cycles += r.delta_stats.cycles;
        }
      }
      const double incr_ms = MakeRtx3090().CyclesToMillis(
          delta_cycles / static_cast<double>(sequence.frames.size() - 1));
      bench::Row("%-10lld %-24s %12.3f %9.2fx", static_cast<long long>(keys.size()),
                 "Minuet(incremental)", incr_ms, incr_ms / minuet_ms);
      report.AddRow();
      report.Set("dataset", std::string(DatasetName(dataset)));
      report.Set("points", static_cast<int64_t>(keys.size()));
      report.Set("engine", std::string("Minuet(incremental)"));
      report.Set("build_ms", incr_ms);
      report.Set("vs_minuet", incr_ms / minuet_ms);
    }
    bench::Rule();
  }
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) {
  using namespace minuet;
  const bench::Flags flags("fig17_map_build", {bench::Flag::kJson}, argc, argv);
  bench::JsonReport report(flags);
  bench::PrintTitle("Figure 17", "Map-step build: hash-table build vs Minuet's radix sort");
  bench::PrintNote("point counts scaled ~10x down from the paper; RTX 3090 device model");
  report.Meta("device", std::string("RTX 3090"));
  RunSweep(DatasetKind::kSem3d, {100000, 200000, 400000, 800000}, report);
  RunSweep(DatasetKind::kRandom, {100000, 200000, 400000, 800000}, report);
  return report.Write() ? 0 : 1;
}
