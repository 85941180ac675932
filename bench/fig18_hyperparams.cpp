// Figure 18: Map-step query time while sweeping Minuet's hyper-parameters B
// (source-block size) and C (balanced query-block size) on three GPU models.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/point_cloud.h"
#include "src/core/weight_offsets.h"
#include "src/data/generators.h"
#include "src/gpusim/device_config.h"
#include "src/map/minuet_map.h"

namespace minuet {
namespace {

void Run(bench::JsonReport& report) {
  const std::vector<int64_t> b_values = {64, 128, 256, 512, 1024, 2048};
  const std::vector<int64_t> c_values = {64, 128, 256, 512, 1024, 2048};
  auto coords = GenerateCoords(DatasetKind::kSem3d, 200000, /*seed=*/12);
  auto keys = PackCoords(coords);
  auto offsets = MakeWeightOffsets(3, 1);

  for (const DeviceConfig& config :
       {MakeRtx2070Super(), MakeRtx3090(), MakeA100()}) {
    std::printf("\n%s — query time (ms); rows: B, cols: C\n", config.name.c_str());
    std::printf("%8s", "B \\ C");
    for (int64_t c : c_values) {
      std::printf(" %8lld", static_cast<long long>(c));
    }
    std::printf("\n");
    bench::Rule();
    double best = 0.0;
    int64_t best_b = 0, best_c = 0;
    std::vector<std::vector<double>> grid;
    for (int64_t b : b_values) {
      grid.emplace_back();
      for (int64_t c : c_values) {
        MinuetMapConfig cfg;
        cfg.source_block_size = b;
        cfg.query_block_size = c;
        MinuetMapBuilder builder(cfg);
        Device device(config);
        const DeviceVector<uint64_t> device_keys = ToDevice(device.memory(), keys);
        MapBuildInput input;
        input.source_keys = device_keys;
        input.output_keys = device_keys;
        input.offsets = offsets;
        input.source_sorted = true;
        input.output_sorted = true;
        MapBuildResult result = builder.Build(device, input);
        double ms = config.CyclesToMillis(result.query_stats.cycles);
        grid.back().push_back(ms);
        report.AddRow();
        report.Set("gpu", config.name);
        report.Set("b", b);
        report.Set("c", c);
        report.Set("query_ms", ms);
        if (best == 0.0 || ms < best) {
          best = ms;
          best_b = b;
          best_c = c;
        }
      }
    }
    for (size_t bi = 0; bi < b_values.size(); ++bi) {
      std::printf("%8lld", static_cast<long long>(b_values[bi]));
      for (size_t ci = 0; ci < c_values.size(); ++ci) {
        bool is_best = b_values[bi] == best_b && c_values[ci] == best_c;
        std::printf(" %7.3f%s", grid[bi][ci], is_best ? "*" : " ");
      }
      std::printf("\n");
    }
    std::printf("best: B=%lld C=%lld (%.3f ms); Minuet defaults B=256 C=512\n",
                static_cast<long long>(best_b), static_cast<long long>(best_c), best);
  }
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) {
  using namespace minuet;
  const bench::Flags flags("fig18_hyperparams", {bench::Flag::kJson}, argc, argv);
  bench::JsonReport report(flags);
  bench::PrintTitle("Figure 18", "Query time vs hyper-parameters B and C on three GPUs");
  bench::PrintNote("sem3d-like cloud, 200K points, K=3");
  report.Meta("points", int64_t{200000});
  Run(report);
  return report.Write() ? 0 : 1;
}
