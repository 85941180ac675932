#include "src/gpusim/device.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/gpusim/device_config.h"
#include "src/trace/trace.h"
#include "src/util/rng.h"

namespace minuet {
namespace {

DeviceConfig TinyConfig() {
  DeviceConfig c = MakeRtx3090();
  c.num_sms = 2;
  c.max_threads_per_sm = 256;
  c.max_blocks_per_sm = 4;
  c.shared_mem_per_sm = 16 << 10;
  c.launch_overhead_cycles = 1000.0;
  return c;
}

TEST(DeviceConfigTest, PresetsAreOrderedByCapability) {
  auto configs = AllDeviceConfigs();
  ASSERT_EQ(configs.size(), 4u);
  EXPECT_EQ(configs[2].name, "RTX 3090");
  EXPECT_LT(configs[0].num_sms, configs[3].num_sms);
  EXPECT_LT(configs[0].l2_bytes, configs[3].l2_bytes);
  EXPECT_LT(configs[0].dram_gbps, configs[3].dram_gbps);
}

TEST(DeviceConfigTest, CyclesToMillis) {
  DeviceConfig c = MakeRtx3090();
  // 1.7e9 cycles at 1.7 GHz is one second.
  EXPECT_NEAR(c.CyclesToMillis(1.7e9), 1000.0, 1e-6);
}

TEST(DeviceTest, ConcurrentBlocksLimitedByThreads) {
  Device dev(TinyConfig());
  // 256 threads/SM and 128-thread blocks -> 2 blocks per SM, 2 SMs -> 4.
  EXPECT_EQ(dev.ConcurrentBlocks(LaunchDims{100, 128, 0}), 4);
  // 64-thread blocks -> 4 per SM (block limit), 2 SMs -> 8.
  EXPECT_EQ(dev.ConcurrentBlocks(LaunchDims{100, 64, 0}), 8);
}

TEST(DeviceTest, ConcurrentBlocksLimitedByShared) {
  Device dev(TinyConfig());
  // 8 KiB shared per block on a 16 KiB SM -> 2 per SM.
  EXPECT_EQ(dev.ConcurrentBlocks(LaunchDims{100, 32, 8 << 10}), 4);
}

TEST(DeviceTest, LaunchChargesOverheadEvenForEmptyKernel) {
  Device dev(TinyConfig());
  KernelStats s = dev.Launch("noop", LaunchDims{0, 128, 0}, [](BlockCtx&) {});
  EXPECT_DOUBLE_EQ(s.cycles, 1000.0);
  EXPECT_EQ(s.num_launches, 1);
}

TEST(DeviceTest, MoreBlocksMoreWaves) {
  Device dev(TinyConfig());
  auto body = [](BlockCtx& ctx) { ctx.Compute(640000); };
  KernelStats one_wave = dev.Launch("k", LaunchDims{4, 128, 0}, body);
  KernelStats two_waves = dev.Launch("k", LaunchDims{8, 128, 0}, body);
  EXPECT_GT(two_waves.cycles, one_wave.cycles * 1.5);
}

TEST(DeviceTest, BlocksWithinOneWaveRunInParallel) {
  Device dev(TinyConfig());
  auto body = [](BlockCtx& ctx) { ctx.Compute(6400); };
  KernelStats one = dev.Launch("k", LaunchDims{1, 128, 0}, body);
  KernelStats four = dev.Launch("k", LaunchDims{4, 128, 0}, body);
  EXPECT_DOUBLE_EQ(one.cycles, four.cycles);
}

TEST(DeviceTest, GlobalReadsGoThroughL2) {
  Device dev(TinyConfig());
  DeviceVector<char> data(4096, dev.memory());
  KernelStats cold = dev.Launch("read", LaunchDims{1, 128, 0}, [&](BlockCtx& ctx) {
    ctx.GlobalRead(data.data(), data.size());
  });
  EXPECT_EQ(cold.l2_hits, 0u);
  // Device buffers are line-aligned: 4096 bytes span exactly 32 lines.
  EXPECT_EQ(cold.l2_misses, 32u);
  KernelStats warm = dev.Launch("read", LaunchDims{1, 128, 0}, [&](BlockCtx& ctx) {
    ctx.GlobalRead(data.data(), data.size());
  });
  EXPECT_EQ(warm.l2_misses, 0u);
  EXPECT_EQ(warm.l2_hits, cold.l2_misses);
  EXPECT_LT(warm.cycles, cold.cycles);
}

TEST(DeviceTest, UnalignedRangeTouchesBothLines) {
  Device dev(TinyConfig());
  DeviceVector<char> data(256, dev.memory());
  KernelStats s = dev.Launch("read", LaunchDims{1, 128, 0}, [&](BlockCtx& ctx) {
    ctx.GlobalRead(data.data() + 120, 16);  // straddles the 128B boundary
  });
  EXPECT_EQ(s.l2_hits + s.l2_misses, 2u);
}

TEST(DeviceTest, TotalsAccumulateAcrossLaunches) {
  Device dev(TinyConfig());
  dev.Launch("a", LaunchDims{1, 128, 0}, [](BlockCtx& ctx) { ctx.Compute(100); });
  dev.Launch("b", LaunchDims{1, 128, 0}, [](BlockCtx& ctx) { ctx.Compute(100); });
  EXPECT_EQ(dev.totals().num_launches, 2);
  EXPECT_EQ(dev.totals().lane_ops, 200u);
  dev.ResetTotals();
  EXPECT_EQ(dev.totals().num_launches, 0);
}

TEST(DeviceTest, GemmCostScalesWithM) {
  Device dev(MakeRtx3090());
  KernelStats small = dev.LaunchGemm("g", 1024, 256, 256);
  KernelStats big = dev.LaunchGemm("g", 8192, 256, 256);
  EXPECT_GT(big.cycles, small.cycles * 4.0);
}

TEST(DeviceTest, GemmSmallMHasPoorUtilisation) {
  Device dev(MakeRtx3090());
  // Same total FLOPs split into 64 tiny GEMMs vs one large one: the tiny
  // ones must cost more in aggregate (this is why batching wins, Fig. 5).
  double tiny_total = 0.0;
  for (int i = 0; i < 64; ++i) {
    tiny_total += dev.LaunchGemm("tiny", 64, 64, 64).cycles;
  }
  KernelStats large = dev.LaunchGemm("large", 64 * 64, 64, 64);
  EXPECT_GT(tiny_total, large.cycles * 2.0);
}

TEST(DeviceTest, TraceRecordsLaunchesInOrder) {
  // The span tracer is the per-launch record: one kernel span per launch, in
  // launch order, carrying the launch's KernelStats as attributes.
  Device dev(TinyConfig());
  dev.Launch("before", LaunchDims{1, 128, 0}, [](BlockCtx&) {});
  trace::Tracer tracer;
  trace::Tracer::Install(&tracer);
  dev.Launch("a", LaunchDims{1, 128, 0}, [](BlockCtx& ctx) { ctx.Compute(10); });
  dev.LaunchGemm("b", 64, 64, 64);
  dev.Launch("c", LaunchDims{2, 128, 0}, [](BlockCtx&) {});
  trace::Tracer::Install(nullptr);
  ASSERT_EQ(tracer.CountCategory("kernel"), 3);
  const std::vector<trace::SpanRecord>& spans = tracer.spans();
  EXPECT_EQ(spans[0].name, "a");
  EXPECT_EQ(spans[1].name, "b");
  EXPECT_EQ(spans[2].name, "c");
  int64_t blocks = -1;
  for (const auto& [key, value] : spans[2].attrs) {
    if (key == "blocks") {
      blocks = std::get<int64_t>(value);
    }
  }
  EXPECT_EQ(blocks, 2);
}

TEST(DeviceTest, ForkSharesAddressesWithColdL2) {
  // A small L2 (8 sets of 16 ways) and a scattered read pattern make the
  // hit count depend on which set each line lands in, i.e. on the device
  // addresses the fork forms over its parent's arena.
  DeviceConfig config = TinyConfig();
  config.l2_bytes = 16 << 10;
  Device dev(config);
  DeviceVector<float> data(1 << 15, dev.memory());
  std::vector<size_t> reads;
  Pcg32 rng(3);
  for (int i = 0; i < 4096; ++i) {
    reads.push_back(rng.NextBounded(static_cast<uint32_t>(data.size())));
  }
  auto body = [&](BlockCtx& ctx) {
    for (size_t i : reads) {
      ctx.GlobalRead(&data[i], sizeof(float));
    }
  };
  const LaunchDims dims{2, 128, 0};
  dev.Launch("warm", dims, body);

  // The fork launches on another thread while its parent launches here; it
  // starts from an empty L2 although the parent's is warm.
  Device fork = dev.Fork();
  EXPECT_EQ(fork.config().name, config.name);
  KernelStats forked;
  std::thread worker([&] { forked = fork.Launch("read", dims, body); });
  dev.Launch("warm", dims, body);
  worker.join();

  dev.l2().Flush();
  KernelStats cold = dev.Launch("read", dims, body);
  EXPECT_GT(cold.l2_hits, 0u);
  EXPECT_GT(cold.l2_misses, 0u);
  EXPECT_EQ(forked.l2_hits, cold.l2_hits);
  EXPECT_EQ(forked.l2_misses, cold.l2_misses);
  EXPECT_EQ(forked.cycles, cold.cycles);
  // Each device keeps its own totals.
  EXPECT_EQ(fork.totals().num_launches, 1);
  EXPECT_EQ(dev.totals().num_launches, 3);
}

TEST(DeviceDeathTest, AllocatingThroughForkDies) {
  Device dev(TinyConfig());
  Device fork = dev.Fork();
  EXPECT_DEATH(DeviceVector<int>(4, fork.memory()), "forked device owns no memory");
}

TEST(DeviceTest, SharedTrafficCostsCycles) {
  Device dev(TinyConfig());
  KernelStats none = dev.Launch("k", LaunchDims{1, 128, 0}, [](BlockCtx&) {});
  KernelStats some = dev.Launch("k", LaunchDims{1, 128, 0},
                                [](BlockCtx& ctx) { ctx.SharedRead(1 << 20); });
  EXPECT_GT(some.cycles, none.cycles);
}

}  // namespace
}  // namespace minuet
