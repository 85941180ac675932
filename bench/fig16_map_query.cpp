// Figure 16: query process of the Map step — (a) speedup over hash-based
// engines and (b) L2 cache hit ratio of the dominating lookup kernel, on
// Sem3D-like and Random clouds as the point count grows.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/point_cloud.h"
#include "src/core/weight_offsets.h"
#include "src/data/generators.h"
#include "src/gpusim/device_config.h"
#include "src/map/binary_baselines.h"
#include "src/map/hash_map.h"
#include "src/map/minuet_map.h"

namespace minuet {
namespace {

struct EngineRow {
  std::string label;
  std::unique_ptr<MapBuilderBase> builder;
};

void RunSweep(DatasetKind dataset, const std::vector<int64_t>& sizes,
              bench::JsonReport& report) {
  std::printf("\ndataset: %s\n", DatasetName(dataset));
  bench::Row("%-10s %-22s %12s %12s %10s %12s", "points", "engine", "query(ms)", "speedup",
             "L2 hit", "comparisons");
  bench::Rule();
  auto offsets = MakeWeightOffsets(3, 1);
  for (int64_t n : sizes) {
    auto coords = GenerateCoords(dataset, n, /*seed=*/5);
    auto keys = PackCoords(coords);

    std::vector<EngineRow> rows;
    rows.push_back({"MinkowskiEngine(hash)",
                    std::make_unique<HashMapBuilder>(HashTableKind::kLinearProbe)});
    rows.push_back(
        {"TorchSparse(hash)", std::make_unique<HashMapBuilder>(HashTableKind::kCuckoo)});
    rows.push_back({"Open3D(hash)", std::make_unique<HashMapBuilder>(HashTableKind::kSpatial)});
    rows.push_back({"Minuet(ours)", std::make_unique<MinuetMapBuilder>()});

    double baseline_ms = 0.0;
    for (auto& row : rows) {
      Device device(MakeRtx3090());
      const DeviceVector<uint64_t> device_keys = ToDevice(device.memory(), keys);
      MapBuildInput input;
      input.source_keys = device_keys;
      input.output_keys = device_keys;
      input.offsets = offsets;
      input.source_sorted = true;
      input.output_sorted = true;
      MapBuildResult result = row.builder->Build(device, input);
      double ms = device.config().CyclesToMillis(result.query_stats.cycles);
      if (row.label == "MinkowskiEngine(hash)") {
        baseline_ms = ms;
      }
      bench::Row("%-10lld %-22s %12.3f %11.2fx %9.1f%% %12llu",
                 static_cast<long long>(coords.size()), row.label.c_str(), ms,
                 baseline_ms / ms, 100.0 * result.lookup_stats.L2HitRatio(),
                 static_cast<unsigned long long>(result.comparisons));
      report.AddRow();
      report.Set("dataset", std::string(DatasetName(dataset)));
      report.Set("points", static_cast<int64_t>(coords.size()));
      report.Set("engine", row.label);
      report.Set("query_ms", ms);
      report.Set("speedup", baseline_ms / ms);
      report.Set("l2_hit_ratio", result.lookup_stats.L2HitRatio());
      report.Set("comparisons", static_cast<int64_t>(result.comparisons));
    }
    bench::Rule();
  }
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) {
  using namespace minuet;
  const bench::Flags flags("fig16_map_query", {bench::Flag::kJson}, argc, argv);
  bench::JsonReport report(flags);
  bench::PrintTitle("Figure 16", "Map-step query: speedup and L2 hit ratio vs point count");
  bench::PrintNote("point counts scaled ~10x down from the paper (simulator on 1 CPU core);");
  bench::PrintNote("K=3, stride 1, RTX 3090 device model; speedup is vs MinkowskiEngine's hash");
  report.Meta("device", std::string("RTX 3090"));
  RunSweep(DatasetKind::kSem3d, {100000, 200000, 400000, 800000}, report);
  RunSweep(DatasetKind::kRandom, {100000, 200000, 400000, 800000}, report);
  return report.Write() ? 0 : 1;
}
