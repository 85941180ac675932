// Figure 20: best-performing Gather and Scatter tile size for each conv layer
// of MinkUNet42, across (a) GPU architectures and (b) datasets, plus the
// total autotuning cost (Section 6.1 reports < 2 minutes on real hardware).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"

namespace minuet {
namespace {

std::vector<std::pair<int, int>> TunedTiles(const DeviceConfig& device, DatasetKind dataset,
                                            int64_t points, double* tuning_ms) {
  Network net = MakeMinkUNet42(4);
  EngineConfig config;
  config.kind = EngineKind::kMinuet;
  Engine engine(config, device);
  engine.Prepare(net, /*seed=*/5);
  GeneratorConfig gen;
  gen.target_points = points;
  gen.channels = 4;
  gen.seed = 51;
  PointCloud sample = GenerateCloud(dataset, gen);
  *tuning_ms = engine.Autotune(sample);
  return engine.layer_tiles();
}

void PrintTiles(const char* label, const char* section,
                const std::vector<std::pair<int, int>>& tiles, double tuning_ms,
                bench::JsonReport& report) {
  std::printf("%-16s gather:", label);
  for (const auto& [g, s] : tiles) {
    std::printf(" %d", g);
  }
  std::printf("\n%-16s scatter:", "");
  for (const auto& [g, s] : tiles) {
    std::printf(" %d", s);
  }
  std::printf("\n");
  for (size_t i = 0; i < tiles.size(); ++i) {
    report.AddRow();
    report.Set("section", std::string(section));
    report.Set("config", std::string(label));
    report.Set("layer", static_cast<int64_t>(i));
    report.Set("gather_tile", int64_t{tiles[i].first});
    report.Set("scatter_tile", int64_t{tiles[i].second});
    report.Set("tuning_wall_ms", tuning_ms);
  }
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) {
  using namespace minuet;
  const bench::Flags flags("fig20_best_tile", {bench::Flag::kJson}, argc, argv);
  bench::JsonReport report(flags);
  bench::PrintTitle("Figure 20",
                    "Best-performing tile sizes per MinkUNet42 conv layer (42 layers)");
  const int64_t points = bench::PointsFromEnv(60000);
  bench::PrintNote("values are per conv layer in network order; 1x1 convs show the fixed tile");
  report.Meta("points", points);

  std::printf("\n(a) across GPU architectures (kitti-like cloud):\n");
  double total_tuning_ms = 0.0;
  for (const DeviceConfig& device : AllDeviceConfigs()) {
    double ms = 0.0;
    auto tiles = TunedTiles(device, DatasetKind::kKitti, points, &ms);
    total_tuning_ms += ms;
    PrintTiles(device.name.c_str(), "gpu", tiles, ms, report);
  }

  std::printf("\n(b) across datasets (RTX 3090):\n");
  for (DatasetKind dataset : AllRealDatasets()) {
    double ms = 0.0;
    auto tiles = TunedTiles(MakeRtx3090(), dataset, points, &ms);
    total_tuning_ms += ms;
    PrintTiles(DatasetName(dataset), "dataset", tiles, ms, report);
  }

  std::printf("\ntotal autotuning wall time for all 8 configurations: %.1f s"
              " (paper: < 2 min per configuration on real GPUs)\n",
              total_tuning_ms / 1000.0);
  return report.Write() ? 0 : 1;
}
