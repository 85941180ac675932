// Figure 3: L2 cache hit ratio while building kernel maps, for the hash-table
// implementations of TorchSparse, MinkowskiEngine and Open3D versus Minuet,
// as the number of input points grows (RTX 3090 model).
//
// Flags beyond the shared --json=FILE:
//   --metrics=FILE    dump every implementation's device counters into one
//                     metrics-registry snapshot, one prefix per (points, impl).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/point_cloud.h"
#include "src/core/weight_offsets.h"
#include "src/data/generators.h"
#include "src/gpusim/device_config.h"
#include "src/map/hash_map.h"
#include "src/map/minuet_map.h"
#include "src/trace/metrics.h"

namespace minuet {
namespace {

void Run(const std::vector<int64_t>& sizes, bench::JsonReport& report,
         trace::MetricsRegistry* metrics) {
  auto offsets = MakeWeightOffsets(3, 1);
  const DeviceConfig config = MakeRtx3090();
  bench::Row("%-10s %-24s %10s", "points", "implementation", "L2 hit");
  bench::Rule();
  for (int64_t n : sizes) {
    auto coords = GenerateCoords(DatasetKind::kRandom, n, /*seed=*/3);
    auto keys = PackCoords(coords);

    struct Impl {
      const char* label;
      std::unique_ptr<MapBuilderBase> builder;
    };
    std::vector<Impl> impls;
    impls.push_back(
        {"TorchSparse(cuckoo)", std::make_unique<HashMapBuilder>(HashTableKind::kCuckoo)});
    impls.push_back({"MinkowskiEngine(linear)",
                     std::make_unique<HashMapBuilder>(HashTableKind::kLinearProbe)});
    impls.push_back(
        {"Open3D(spatial)", std::make_unique<HashMapBuilder>(HashTableKind::kSpatial)});
    impls.push_back({"Minuet(ours)", std::make_unique<MinuetMapBuilder>()});
    for (auto& impl : impls) {
      Device device(config);
      const DeviceVector<uint64_t> device_keys = ToDevice(device.memory(), keys);
      MapBuildInput input;
      input.source_keys = device_keys;
      input.output_keys = device_keys;
      input.offsets = offsets;
      input.source_sorted = true;
      input.output_sorted = true;
      MapBuildResult result = impl.builder->Build(device, input);
      bench::Row("%-10lld %-24s %9.1f%%", static_cast<long long>(n), impl.label,
                 100.0 * result.lookup_stats.L2HitRatio());
      report.AddRow();
      report.Set("points", n);
      report.Set("implementation", std::string(impl.label));
      report.Set("l2_hit_ratio", result.lookup_stats.L2HitRatio());
      if (metrics != nullptr) {
        device.PublishMetrics(*metrics,
                              "fig03/" + std::to_string(n) + "/" + impl.label);
      }
    }
    bench::Rule();
  }
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) {
  using namespace minuet;
  const bench::Flags flags("fig03_map_l2_hitratio",
                           {bench::Flag::kJson, bench::Flag::kMetrics},
                           argc, argv);
  bench::JsonReport report(flags);
  const std::string& metrics_path = flags.Get(bench::Flag::kMetrics);
  bench::PrintTitle("Figure 3",
                    "L2 hit ratio of kernel-map building (lookup kernels), random clouds");
  bench::PrintNote("point counts scaled ~5x down from the paper (1e5..5e6 -> 2e4..1e6)");
  report.Meta("device", std::string("RTX 3090"));
  trace::MetricsRegistry metrics;
  Run({20000, 50000, 100000, 200000, 500000, 1000000}, report,
      metrics_path.empty() ? nullptr : &metrics);
  if (!metrics_path.empty() && !metrics.WriteSnapshot(metrics_path)) {
    std::fprintf(stderr, "could not write %s\n", metrics_path.c_str());
    return 1;
  }
  return report.Write() ? 0 : 1;
}
