// Tile-size autotuner for Gather/Scatter (Algorithm 2, Section 5.2.1).
//
// For a layer's sampled metadata tables, profiles every divisor of the
// channel count on a scratch device and returns the fastest tile. Runs once
// per (layer, dataset, device) before inference; the paper reports the whole
// process under two minutes, and the simulator equivalent is milliseconds.
//
// The candidates are independent: each starts from a flushed L2 and reads
// the same tables at the same device addresses. They are therefore spread
// over ParallelWorkers(candidates) threads (src/util/parallel.h), the
// calling thread on the device itself and each other worker on a
// Device::Fork() of it, and every candidate's cycles equal those of a serial
// `l2().Flush(); GatherKernel(device, ...)` loop.
#ifndef SRC_GMAS_AUTOTUNE_H_
#define SRC_GMAS_AUTOTUNE_H_

#include <utility>
#include <vector>

#include "src/gmas/gather_scatter.h"
#include "src/gpusim/device.h"

namespace minuet {

struct AutotuneOutcome {
  int best_tile = 1;
  double best_cycles = 0.0;
  // (tile, simulated cycles) for every candidate, in ascending-tile order.
  std::vector<std::pair<int, double>> profile;
  double tuning_wall_millis = 0.0;  // host time spent profiling
};

// Profiles GatherKernel over all divisors of `channels` using `tables` built
// from a sampled point cloud. `tables` live in `device`'s memory, where the
// probe operands are allocated too. Every tile starts from a cold L2, and the
// call leaves `device`'s L2 flushed. Only the candidates the calling thread
// profiled count in `device`'s totals (forks' launches are not added), so
// the totals after a call depend on scheduling: the caller should discard
// them, as Engine::Autotune discards its scratch device. The launches reach
// no tracer.
AutotuneOutcome AutotuneGatherTile(Device& device, const MetadataTables& tables,
                                   int64_t channels);

AutotuneOutcome AutotuneScatterTile(Device& device, const MetadataTables& tables,
                                    int64_t channels);

}  // namespace minuet

#endif  // SRC_GMAS_AUTOTUNE_H_
