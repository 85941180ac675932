#include "src/gmas/autotune.h"

#include "src/util/check.h"
#include "src/util/timer.h"

namespace minuet {

namespace {

template <typename RunTile>
AutotuneOutcome ProfileTiles(int64_t channels, RunTile&& run_tile) {
  AutotuneOutcome outcome;
  WallTimer timer;
  for (int tile : CandidateTileSizes(channels)) {
    double cycles = run_tile(tile);
    outcome.profile.emplace_back(tile, cycles);
    if (outcome.best_cycles == 0.0 || cycles < outcome.best_cycles) {
      outcome.best_cycles = cycles;
      outcome.best_tile = tile;
    }
  }
  outcome.tuning_wall_millis = timer.ElapsedMillis();
  return outcome;
}

}  // namespace

AutotuneOutcome AutotuneGatherTile(Device& device, const MetadataTables& tables,
                                   int64_t channels, int threads_per_block) {
  MINUET_CHECK_GT(channels, 0);
  // Timing-only probes read no payload, so the operands stay unwritten.
  FeatureMatrix features = FeatureMatrix::Uninitialized(tables.num_inputs, channels,
                                                        device.memory());
  FeatureMatrix buffer = FeatureMatrix::Uninitialized(tables.buffer_rows, channels,
                                                      device.memory());
  return ProfileTiles(channels, [&](int tile) {
    device.l2().Flush();
    TileKernelConfig cfg;
    cfg.tile_size = tile;
    cfg.threads_per_block = threads_per_block;
    cfg.functional = false;
    return GatherKernel(device, tables, features, buffer, cfg).cycles;
  });
}

AutotuneOutcome AutotuneScatterTile(Device& device, const MetadataTables& tables,
                                    int64_t channels, int threads_per_block) {
  MINUET_CHECK_GT(channels, 0);
  FeatureMatrix buffer = FeatureMatrix::Uninitialized(tables.buffer_rows, channels,
                                                      device.memory());
  FeatureMatrix output = FeatureMatrix::Uninitialized(tables.num_outputs, channels,
                                                      device.memory());
  return ProfileTiles(channels, [&](int tile) {
    device.l2().Flush();
    TileKernelConfig cfg;
    cfg.tile_size = tile;
    cfg.threads_per_block = threads_per_block;
    cfg.functional = false;
    return ScatterKernel(device, buffer, tables, output, cfg).cycles;
  });
}

}  // namespace minuet
