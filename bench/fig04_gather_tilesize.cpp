// Figure 4: latency of one Gather operation as a function of the tile size,
// varying (a) the input channel size, (b) the dataset, and (c) the GPU
// architecture. Demonstrates that the best tile is configuration-dependent
// (Shortcoming #2), motivating the autotuner.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/dense_reference.h"
#include "src/core/weight_offsets.h"
#include "src/data/generators.h"
#include "src/gmas/gather_scatter.h"
#include "src/gmas/grouping.h"
#include "src/gmas/metadata.h"
#include "src/gpusim/device_config.h"

namespace minuet {
namespace {

MetadataTables TablesFor(Device& device, DatasetKind dataset, int64_t points) {
  auto coords = GenerateCoords(dataset, points, /*seed=*/4);
  auto offsets = MakeWeightOffsets(3, 1);
  KernelMap map = CompactPositionTable(ReferenceMapPositions(coords, coords, offsets), offsets,
                                       device.memory());
  GroupingPlan plan = PlanGemmGroups(map.EntryCounts(), GroupingStrategy::kSortedOrder);
  return BuildMetadataTables(device, map, plan, static_cast<int64_t>(coords.size()),
                             static_cast<int64_t>(coords.size()), nullptr);
}

void SweepTiles(const DeviceConfig& config, const MetadataTables& tables, int64_t channels,
                const char* label, const char* section, bench::JsonReport& report) {
  std::printf("%-28s", label);
  double best = 0.0;
  int best_tile = 0;
  std::vector<std::pair<int, double>> rows;
  for (int tile : CandidateTileSizes(channels)) {
    // A fresh device per tile (cold L2), holding its own copy of the tables.
    Device device(config);
    MetadataTables on_device = tables;
    on_device.imt = ToDevice(device.memory(), tables.imt);
    on_device.omt = ToDevice(device.memory(), tables.omt);
    FeatureMatrix features(tables.num_inputs, channels, 0.0f, device.memory());
    FeatureMatrix buffer(tables.buffer_rows, channels, 0.0f, device.memory());
    TileKernelConfig cfg;
    cfg.tile_size = tile;
    cfg.functional = false;
    double ms =
        config.CyclesToMillis(GatherKernel(device, on_device, features, buffer, cfg).cycles);
    rows.emplace_back(tile, ms);
    if (best == 0.0 || ms < best) {
      best = ms;
      best_tile = tile;
    }
  }
  for (auto& [tile, ms] : rows) {
    std::printf(" %8.3f%s", ms, tile == best_tile ? "*" : " ");
    report.AddRow();
    report.Set("section", std::string(section));
    report.Set("config", std::string(label));
    report.Set("tile", int64_t{tile});
    report.Set("gather_ms", ms);
    report.Set("best", int64_t{tile == best_tile ? 1 : 0});
  }
  std::printf("\n");
}

void PrintTileHeader(int64_t channels) {
  std::printf("%-28s", "tile size ->");
  for (int tile : CandidateTileSizes(channels)) {
    std::printf(" %8d ", tile);
  }
  std::printf("\n");
  bench::Rule();
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) {
  using namespace minuet;
  const bench::Flags flags("fig04_gather_tilesize", {bench::Flag::kJson}, argc, argv);
  bench::JsonReport report(flags);
  bench::PrintTitle("Figure 4", "Gather latency (ms) vs tile size; '*' marks the best tile");
  bench::PrintNote("80K-point clouds, K=3; latencies are simulated device time");
  report.Meta("points", int64_t{80000});

  std::printf("\n(a) varying input channel size — s3dis-like cloud, RTX 3090\n");
  {
    Device dev(MakeRtx3090());
    MetadataTables tables = TablesFor(dev, DatasetKind::kS3dis, 80000);
    PrintTileHeader(256);
    for (int64_t c : {32, 64, 128, 256}) {
      char label[64];
      std::snprintf(label, sizeof(label), "C_in = %lld", static_cast<long long>(c));
      SweepTiles(MakeRtx3090(), tables, c, label, "channels", report);
    }
  }

  std::printf("\n(b) varying dataset — C_in = 64, RTX 3090\n");
  PrintTileHeader(64);
  for (DatasetKind dataset : AllRealDatasets()) {
    Device dev(MakeRtx3090());
    MetadataTables tables = TablesFor(dev, dataset, 80000);
    SweepTiles(MakeRtx3090(), tables, 64, DatasetName(dataset), "dataset", report);
  }

  std::printf("\n(c) varying GPU — C_in = 64, kitti-like cloud\n");
  PrintTileHeader(64);
  {
    Device dev(MakeRtx3090());
    MetadataTables tables = TablesFor(dev, DatasetKind::kKitti, 80000);
    for (const DeviceConfig& config : AllDeviceConfigs()) {
      SweepTiles(config, tables, 64, config.name.c_str(), "gpu", report);
    }
  }
  return report.Write() ? 0 : 1;
}
