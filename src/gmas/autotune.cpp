#include "src/gmas/autotune.h"

#include <vector>

#include "src/trace/trace.h"
#include "src/util/check.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace minuet {

namespace {

// Uninstalls the calling thread's tracer for the guard's lifetime.
class TracerPause {
 public:
  TracerPause() : tracer_(trace::Tracer::Get()) { trace::Tracer::Install(nullptr); }
  ~TracerPause() { trace::Tracer::Install(tracer_); }
  TracerPause(const TracerPause&) = delete;
  TracerPause& operator=(const TracerPause&) = delete;

 private:
  trace::Tracer* tracer_;
};

// Profiles `run_tile(device, tile)` for every candidate tile, each from a
// flushed L2. The calling thread profiles on `device` and every other worker
// on a fork of it; since a fork charges what `device` would from a flushed
// L2, each candidate's cycles are those of the serial loop, whichever worker
// ran it. Cycles go into per-candidate slots and are reduced in tile order,
// so the outcome does not depend on the worker count either.
template <typename RunTile>
AutotuneOutcome ProfileTiles(Device& device, int64_t channels, RunTile&& run_tile) {
  AutotuneOutcome outcome;
  WallTimer timer;
  // Ascending tiles are descending work (tile 1 launches the most threads),
  // so claiming candidates in order schedules the longest first.
  const std::vector<int> tiles = CandidateTileSizes(channels);
  const int64_t n = static_cast<int64_t>(tiles.size());
  std::vector<Device> forks;
  for (int worker = 1; worker < ParallelWorkers(n); ++worker) {
    forks.push_back(device.Fork());
  }
  std::vector<double> cycles(tiles.size());
  {
    // The forks' launches reach no tracer (it is thread-local), so the
    // calling thread's are kept out of it too: a trace must not depend on
    // which candidates worker 0 happened to claim.
    TracerPause pause;
    ParallelFor(n, [&](int worker, int64_t i) {
      Device& dev = worker == 0 ? device : forks[static_cast<size_t>(worker - 1)];
      dev.l2().Flush();
      cycles[static_cast<size_t>(i)] = run_tile(dev, tiles[static_cast<size_t>(i)]);
    });
  }
  // Which candidate worker 0 ran last depends on scheduling; flushing keeps
  // the device's L2 state after the call independent of it.
  device.l2().Flush();

  for (size_t i = 0; i < tiles.size(); ++i) {
    outcome.profile.emplace_back(tiles[i], cycles[i]);
    if (outcome.best_cycles == 0.0 || cycles[i] < outcome.best_cycles) {
      outcome.best_cycles = cycles[i];
      outcome.best_tile = tiles[i];
    }
  }
  outcome.tuning_wall_millis = timer.ElapsedMillis();
  return outcome;
}

TileKernelConfig ProbeConfig(int tile) {
  TileKernelConfig cfg;
  cfg.tile_size = tile;
  cfg.functional = false;
  return cfg;
}

}  // namespace

AutotuneOutcome AutotuneGatherTile(Device& device, const MetadataTables& tables,
                                   int64_t channels) {
  MINUET_CHECK_GT(channels, 0);
  // Timing-only probes read and write no payload, so the operands stay
  // unwritten, and the workers may share them.
  FeatureMatrix features = FeatureMatrix::Uninitialized(tables.num_inputs, channels,
                                                        device.memory());
  FeatureMatrix buffer = FeatureMatrix::Uninitialized(tables.buffer_rows, channels,
                                                      device.memory());
  return ProfileTiles(device, channels, [&](Device& dev, int tile) {
    return GatherKernel(dev, tables, features, buffer, ProbeConfig(tile)).cycles;
  });
}

AutotuneOutcome AutotuneScatterTile(Device& device, const MetadataTables& tables,
                                    int64_t channels) {
  MINUET_CHECK_GT(channels, 0);
  FeatureMatrix buffer = FeatureMatrix::Uninitialized(tables.buffer_rows, channels,
                                                      device.memory());
  FeatureMatrix output = FeatureMatrix::Uninitialized(tables.num_outputs, channels,
                                                      device.memory());
  return ProfileTiles(device, channels, [&](Device& dev, int tile) {
    return ScatterKernel(dev, buffer, tables, output, ProbeConfig(tile)).cycles;
  });
}

}  // namespace minuet
