// Test access to a Device's parallel-launch settings, which are not public
// (the block threshold, the worker count and the ring's slot size), and the
// launch modes the parallel-launch tests compare. Every mode must give the
// serial loop's statistics, L2 state and payload.
#ifndef TESTS_GPUSIM_DEVICE_PEER_H_
#define TESTS_GPUSIM_DEVICE_PEER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/gpusim/device.h"

namespace minuet {

struct DevicePeer {
  static void SetParallelMinBlocks(Device& device, int64_t blocks) {
    device.parallel_min_blocks_ = blocks;
  }
  // 0 = ParallelWorkers of the chunk count; 1 runs the ring on the caller.
  static void SetParallelWorkers(Device& device, int workers) {
    device.parallel_workers_ = workers;
  }
  static void SetRingSlotLines(Device& device, size_t lines) { device.ring_slot_lines_ = lines; }
};

struct LaunchMode {
  const char* name;
  int64_t min_blocks;
  int workers;
  size_t slot_lines;  // 0 = the default
};

// Serial (threshold out of reach), then threshold 0 on one worker and on
// four, each also with slots of 64 lines, which every block of a real kernel
// overflows.
inline std::vector<LaunchMode> ParallelLaunchModes() {
  constexpr int64_t kNever = std::numeric_limits<int64_t>::max();
  return {
      {"serial", kNever, 0, 0},
      {"threshold 0, 1 worker", 0, 1, 0},
      {"threshold 0, 4 workers", 0, 4, 0},
      {"threshold 0, 1 worker, 64-line slots", 0, 1, 64},
      {"threshold 0, 4 workers, 64-line slots", 0, 4, 64},
  };
}

inline void ApplyLaunchMode(Device& device, const LaunchMode& mode) {
  DevicePeer::SetParallelMinBlocks(device, mode.min_blocks);
  DevicePeer::SetParallelWorkers(device, mode.workers);
  DevicePeer::SetRingSlotLines(device, mode.slot_lines);
}

inline void ExpectSameKernelStats(const KernelStats& a, const KernelStats& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.millis, b.millis);
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.global_bytes_read, b.global_bytes_read);
  EXPECT_EQ(a.global_bytes_written, b.global_bytes_written);
  EXPECT_EQ(a.shared_bytes, b.shared_bytes);
  EXPECT_EQ(a.lane_ops, b.lane_ops);
  EXPECT_EQ(a.num_blocks, b.num_blocks);
  EXPECT_EQ(a.num_launches, b.num_launches);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_EQ(a.num_waves, b.num_waves);
  EXPECT_EQ(a.block_slots, b.block_slots);
  EXPECT_EQ(a.launch_cycles, b.launch_cycles);
  EXPECT_EQ(a.compute_cycles, b.compute_cycles);
  EXPECT_EQ(a.dram_cycles, b.dram_cycles);
  EXPECT_EQ(a.l2_cycles, b.l2_cycles);
}

// A device's totals, per-kernel aggregates and L2 counters against a
// reference device's.
inline void ExpectSameDeviceState(const Device& got, const Device& want) {
  ExpectSameKernelStats(got.totals(), want.totals());
  const auto& got_kernels = got.kernel_aggregates();
  const auto& want_kernels = want.kernel_aggregates();
  ASSERT_EQ(got_kernels.size(), want_kernels.size());
  for (auto g = got_kernels.begin(), w = want_kernels.begin(); g != got_kernels.end(); ++g, ++w) {
    SCOPED_TRACE(w->first);
    ExpectSameKernelStats(g->second, w->second);
  }
  EXPECT_EQ(got.l2().hits(), want.l2().hits());
  EXPECT_EQ(got.l2().misses(), want.l2().misses());
}

}  // namespace minuet

#endif  // TESTS_GPUSIM_DEVICE_PEER_H_
