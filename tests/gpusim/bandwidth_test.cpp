// Tests for the wave-level bandwidth caps, occupancy scaling and the
// per-block L1 added for the paper's memory-behaviour experiments.
#include <vector>

#include <gtest/gtest.h>

#include "src/gpusim/device.h"
#include "src/gpusim/device_config.h"

namespace minuet {
namespace {

DeviceConfig BigConfig() {
  DeviceConfig c = MakeRtx3090();
  c.launch_overhead_cycles = 0.0;
  return c;
}

TEST(BandwidthTest, ManyBlocksCannotExceedDramBandwidth) {
  // 2000 blocks each miss 100 lines: 200k lines at ~4.3 lines/cycle cannot
  // finish faster than ~46k cycles even though per-block serial cost is low.
  DeviceConfig config = BigConfig();
  Device dev(config);
  DeviceVector<char> data(2000 * 100 * 128, dev.memory());
  KernelStats stats = dev.Launch("stream", LaunchDims{2000, 128, 0}, [&](BlockCtx& ctx) {
    ctx.GlobalRead(data.data() + ctx.block_index() * 100 * 128, 100 * 128);
  });
  double dram_lines_per_cycle = config.dram_gbps / config.clock_ghz / config.line_bytes;
  double floor = static_cast<double>(stats.l2_misses) / dram_lines_per_cycle;
  EXPECT_GE(stats.cycles, floor * 0.99);
}

TEST(BandwidthTest, LowOccupancyReducesAchievedBandwidth) {
  // The same total traffic split over 4 blocks vs 400 blocks: the tiny grid
  // cannot saturate DRAM, so it takes longer per byte.
  DeviceConfig config = BigConfig();
  auto run = [&](int64_t blocks) {
    Device dev(config);
    DeviceVector<char> data(400 * 128 * 128, dev.memory());
    size_t per_block = data.size() / static_cast<size_t>(blocks);
    KernelStats s = dev.Launch("k", LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
      ctx.GlobalRead(data.data() + static_cast<size_t>(ctx.block_index()) * per_block,
                     per_block);
    });
    return s.cycles;
  };
  double tiny_grid = run(4);
  double big_grid = run(400);
  EXPECT_GT(tiny_grid, big_grid * 1.5);
}

TEST(L1Test, RepeatedReadsWithinABlockHitL1NotL2) {
  Device dev(BigConfig());
  DeviceVector<char> data(128, dev.memory());
  KernelStats stats = dev.Launch("k", LaunchDims{1, 128, 0}, [&](BlockCtx& ctx) {
    for (int i = 0; i < 100; ++i) {
      ctx.GlobalRead(data.data(), 64);  // same line every time
    }
  });
  // One L2 access (the first), the rest absorbed by the block's L1.
  EXPECT_EQ(stats.l2_hits + stats.l2_misses, 1u);
}

TEST(L1Test, L1IsPrivatePerBlock) {
  Device dev(BigConfig());
  DeviceVector<char> data(128, dev.memory());
  KernelStats stats = dev.Launch("k", LaunchDims{8, 128, 0}, [&](BlockCtx& ctx) {
    ctx.GlobalRead(data.data(), 64);
  });
  // Each block's first access misses its own L1 and reaches L2.
  EXPECT_EQ(stats.l2_hits + stats.l2_misses, 8u);
  EXPECT_EQ(stats.l2_misses, 1u);  // L2 itself is shared: 1 miss, 7 hits
}

TEST(L1Test, WritesBypassL1) {
  Device dev(BigConfig());
  DeviceVector<char> data(128, dev.memory());
  KernelStats stats = dev.Launch("k", LaunchDims{1, 128, 0}, [&](BlockCtx& ctx) {
    ctx.GlobalWrite(data.data(), 64);
    ctx.GlobalWrite(data.data(), 64);
    ctx.GlobalWrite(data.data(), 64);
  });
  EXPECT_EQ(stats.l2_hits + stats.l2_misses, 3u);
}

TEST(L1Test, ConflictingLinesEvict) {
  // Two lines 16 KiB apart map to the same direct-mapped L1 slot: ping-pong
  // reads never hit L1.
  Device dev(BigConfig());
  DeviceVector<char> data(2 * 128 * 128, dev.memory());
  char* a = data.data();
  char* b = data.data() + 128 * 128;  // kL1Lines * line_bytes apart
  KernelStats stats = dev.Launch("k", LaunchDims{1, 128, 0}, [&](BlockCtx& ctx) {
    for (int i = 0; i < 10; ++i) {
      ctx.GlobalRead(a, 8);
      ctx.GlobalRead(b, 8);
    }
  });
  // Device buffers are line-aligned, so a and b share an L1 slot exactly:
  // every one of the 20 reads reaches the L2.
  EXPECT_EQ(stats.l2_hits + stats.l2_misses, 20u);
}

TEST(BandwidthTest, L2HitsBoundedByL2Bandwidth) {
  DeviceConfig config = BigConfig();
  Device dev(config);
  DeviceVector<char> data(512 * 1024, dev.memory());  // fits L2
  // Warm the L2.
  dev.Launch("warm", LaunchDims{512, 128, 0}, [&](BlockCtx& ctx) {
    ctx.GlobalRead(data.data() + ctx.block_index() * 1024, 1024);
  });
  // Re-read with block-shifted offsets so the per-block L1 cannot help.
  KernelStats stats = dev.Launch("reread", LaunchDims{512, 128, 0}, [&](BlockCtx& ctx) {
    size_t offset = static_cast<size_t>((ctx.block_index() * 131) % 512) * 1024;
    ctx.GlobalRead(data.data() + offset, 1024);
  });
  EXPECT_GT(stats.L2HitRatio(), 0.9);
  double l2_lines_per_cycle = 4.0 * config.dram_gbps / config.clock_ghz / config.line_bytes;
  EXPECT_GE(stats.cycles, static_cast<double>(stats.l2_hits) / l2_lines_per_cycle * 0.99);
}

}  // namespace
}  // namespace minuet
