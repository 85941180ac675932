// Edge cases of KernelStats aggregation and the derived attribution ratios
// (occupancy, DRAM bandwidth utilisation, arithmetic intensity, roofline
// class) introduced for the profiling stack.
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "src/gpusim/device.h"
#include "src/gpusim/device_config.h"
#include "src/trace/metrics.h"

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

TEST(KernelStatsTest, ZeroStatsHaveSafeDerivedValues) {
  KernelStats s;
  EXPECT_DOUBLE_EQ(s.L2HitRatio(), 0.0);
  EXPECT_DOUBLE_EQ(s.Occupancy(), 0.0);
  EXPECT_DOUBLE_EQ(s.DramBandwidthUtilization(MakeRtx3090()), 0.0);
  EXPECT_DOUBLE_EQ(s.ArithmeticIntensity(), 0.0);
  // All attribution buckets are zero; ties resolve to launch_bound.
  EXPECT_EQ(s.Roofline(), RooflineClass::kLaunchBound);
  EXPECT_STREQ(RooflineClassName(s.Roofline()), "launch_bound");
}

TEST(KernelStatsTest, AggregatingZeroTrafficStatsKeepsRatios) {
  KernelStats a;
  a.cycles = 5000.0;
  a.l2_hits = 90;
  a.l2_misses = 10;
  a.dram_bytes = 10 * 128;
  a.lane_ops = 640;
  a.num_blocks = 8;
  a.num_waves = 1;
  a.block_slots = 16;
  a.dram_cycles = 5000.0;

  KernelStats zero;  // e.g. an empty launch: no blocks, no traffic
  zero.num_launches = 1;
  a += zero;

  EXPECT_DOUBLE_EQ(a.L2HitRatio(), 0.9);
  EXPECT_DOUBLE_EQ(a.Occupancy(), 0.5);
  EXPECT_DOUBLE_EQ(a.ArithmeticIntensity(), 640.0 / (10 * 128));
  EXPECT_EQ(a.Roofline(), RooflineClass::kDramBound);
}

TEST(KernelStatsTest, OperatorPlusEqualsSumsAttributionFields) {
  KernelStats a, b;
  a.dram_bytes = 100;
  a.num_waves = 2;
  a.block_slots = 20;
  a.launch_cycles = 1.0;
  a.compute_cycles = 2.0;
  a.dram_cycles = 3.0;
  a.l2_cycles = 4.0;
  b.dram_bytes = 900;
  b.num_waves = 3;
  b.block_slots = 30;
  b.launch_cycles = 10.0;
  b.compute_cycles = 20.0;
  b.dram_cycles = 30.0;
  b.l2_cycles = 40.0;
  a += b;
  EXPECT_EQ(a.dram_bytes, 1000u);
  EXPECT_EQ(a.num_waves, 5);
  EXPECT_EQ(a.block_slots, 50);
  EXPECT_DOUBLE_EQ(a.launch_cycles, 11.0);
  EXPECT_DOUBLE_EQ(a.compute_cycles, 22.0);
  EXPECT_DOUBLE_EQ(a.dram_cycles, 33.0);
  EXPECT_DOUBLE_EQ(a.l2_cycles, 44.0);
}

TEST(KernelStatsTest, RooflineClassIsArgmaxOfAttributedCycles) {
  KernelStats s;
  s.launch_cycles = 10.0;
  EXPECT_EQ(s.Roofline(), RooflineClass::kLaunchBound);
  s.compute_cycles = 20.0;
  EXPECT_EQ(s.Roofline(), RooflineClass::kComputeBound);
  s.dram_cycles = 30.0;
  EXPECT_EQ(s.Roofline(), RooflineClass::kDramBound);
  s.l2_cycles = 40.0;
  EXPECT_EQ(s.Roofline(), RooflineClass::kL2Bound);
  EXPECT_STREQ(RooflineClassName(RooflineClass::kComputeBound), "compute_bound");
  EXPECT_STREQ(RooflineClassName(RooflineClass::kDramBound), "dram_bound");
  EXPECT_STREQ(RooflineClassName(RooflineClass::kL2Bound), "l2_bound");
}

TEST(KernelStatsTest, ArithmeticIntensityOfComputeOnlyKernelIsInfinite) {
  KernelStats s;
  s.lane_ops = 1000;
  EXPECT_TRUE(std::isinf(s.ArithmeticIntensity()));
  s.dram_bytes = 500;
  EXPECT_DOUBLE_EQ(s.ArithmeticIntensity(), 2.0);
}

TEST(KernelStatsTest, OccupancyClampsToOne) {
  KernelStats s;
  s.num_blocks = 100;
  s.block_slots = 50;  // cannot happen from the scheduler, but stay safe
  EXPECT_DOUBLE_EQ(s.Occupancy(), 1.0);
}

TEST(KernelStatsTest, DramBandwidthUtilizationMatchesConfigPeak) {
  DeviceConfig config = MakeRtx3090();
  KernelStats s;
  s.cycles = 1000.0;
  // Peak is dram_gbps / clock_ghz bytes per cycle; ask for exactly half.
  double peak_bytes_per_cycle = config.dram_gbps / config.clock_ghz;
  s.dram_bytes = static_cast<uint64_t>(0.5 * peak_bytes_per_cycle * s.cycles);
  EXPECT_NEAR(s.DramBandwidthUtilization(config), 0.5, 1e-3);
  // Demanding 10x the peak clamps to 1.
  s.dram_bytes = static_cast<uint64_t>(10.0 * peak_bytes_per_cycle * s.cycles);
  EXPECT_DOUBLE_EQ(s.DramBandwidthUtilization(config), 1.0);
}

TEST(KernelStatsTest, LaunchAttributionSumsToTotalCycles) {
  Device dev(TinyConfig());
  const DeviceVector<char> buffer(64 * 4096, dev.memory());
  KernelStats s = dev.Launch("attr_sum", LaunchDims{64, 128, 0}, [&](BlockCtx& ctx) {
    const char* base = buffer.data();
    for (int i = 0; i < 32; ++i) {
      ctx.GlobalRead(base + static_cast<ptrdiff_t>(ctx.block_index()) * 4096 + i * 128, 128);
    }
    ctx.Compute(500);
  });
  EXPECT_GT(s.cycles, 0.0);
  double attributed = s.launch_cycles + s.compute_cycles + s.dram_cycles + s.l2_cycles;
  EXPECT_NEAR(attributed, s.cycles, 1e-6 * s.cycles);
  EXPECT_GT(s.num_waves, 0);
  EXPECT_GE(s.block_slots, s.num_blocks);
  EXPECT_GT(s.Occupancy(), 0.0);
  EXPECT_LE(s.Occupancy(), 1.0);
  EXPECT_GE(s.DramBandwidthUtilization(dev.config()), 0.0);
  EXPECT_LE(s.DramBandwidthUtilization(dev.config()), 1.0);
}

TEST(KernelStatsTest, GemmLaunchCarriesRooflineInputs) {
  Device dev(TinyConfig());
  KernelStats s = dev.LaunchGemm("gemm", 256, 64, 64, /*batch=*/4);
  EXPECT_GT(s.dram_bytes, 0u);
  EXPECT_GT(s.lane_ops, 0u);
  EXPECT_EQ(s.num_waves, 1);
  EXPECT_GT(s.Occupancy(), 0.0);
  EXPECT_LE(s.Occupancy(), 1.0);
  double attributed = s.launch_cycles + s.compute_cycles + s.dram_cycles + s.l2_cycles;
  EXPECT_NEAR(attributed, s.cycles, 1e-6 * s.cycles);
}

// Acceptance check for the metrics surface: every kernel aggregate published
// to a registry carries occupancy, bandwidth utilisation and a roofline
// class, each consistent with the DeviceConfig peaks it was derived from.
TEST(KernelStatsTest, PublishedAggregatesCarryConsistentDerivedMetrics) {
  Device dev(TinyConfig());
  const DeviceVector<char> buffer(32 * 8192, dev.memory());
  dev.Launch("mem_kernel", LaunchDims{32, 128, 0}, [&](BlockCtx& ctx) {
    const char* base = buffer.data();
    for (int i = 0; i < 64; ++i) {
      ctx.GlobalRead(base + static_cast<ptrdiff_t>(ctx.block_index()) * 8192 + i * 128, 128);
    }
  });
  dev.Launch("compute_kernel", LaunchDims{16, 128, 0},
             [](BlockCtx& ctx) { ctx.Compute(20000); });
  dev.LaunchGemm("gemm_kernel", 512, 64, 64, /*batch=*/2);

  trace::MetricsRegistry registry;
  dev.PublishMetrics(registry);

  ASSERT_TRUE(registry.HasLabel("device/config/name"));
  EXPECT_EQ(registry.GetLabel("device/config/name").value(), dev.config().name);
  EXPECT_DOUBLE_EQ(registry.GetGauge("device/config/dram_gbps").value(),
                   dev.config().dram_gbps);

  int kernels_checked = 0;
  for (const auto& [name, stats] : dev.kernel_aggregates()) {
    const std::string prefix = "device/kernel/" + name;
    ASSERT_TRUE(registry.HasGauge(prefix + "/occupancy")) << name;
    ASSERT_TRUE(registry.HasGauge(prefix + "/dram_bw_util")) << name;
    ASSERT_TRUE(registry.HasGauge(prefix + "/arith_intensity")) << name;
    ASSERT_TRUE(registry.HasLabel(prefix + "/roofline")) << name;
    ASSERT_TRUE(registry.HasCounter(prefix + "/waves")) << name;
    ASSERT_TRUE(registry.HasCounter(prefix + "/dram_bytes")) << name;

    double occupancy = registry.GetGauge(prefix + "/occupancy").value();
    EXPECT_GE(occupancy, 0.0) << name;
    EXPECT_LE(occupancy, 1.0) << name;
    EXPECT_DOUBLE_EQ(occupancy, stats.Occupancy()) << name;

    double bw_util = registry.GetGauge(prefix + "/dram_bw_util").value();
    EXPECT_GE(bw_util, 0.0) << name;
    EXPECT_LE(bw_util, 1.0) << name;
    EXPECT_DOUBLE_EQ(bw_util, stats.DramBandwidthUtilization(dev.config())) << name;
    // Consistency against the config peak: utilisation x peak bytes/cycle x
    // cycles recovers at most the recorded DRAM traffic (equality unless
    // clamped).
    double implied_bytes =
        bw_util * (dev.config().dram_gbps / dev.config().clock_ghz) * stats.cycles;
    EXPECT_LE(implied_bytes, static_cast<double>(stats.dram_bytes) * (1.0 + 1e-9)) << name;

    const std::string& roofline = registry.GetLabel(prefix + "/roofline").value();
    EXPECT_EQ(roofline, RooflineClassName(stats.Roofline())) << name;
    EXPECT_TRUE(roofline == "launch_bound" || roofline == "compute_bound" ||
                roofline == "dram_bound" || roofline == "l2_bound")
        << name << ": " << roofline;
    ++kernels_checked;
  }
  EXPECT_EQ(kernels_checked, 3);

  // The memory-only kernel must not be compute_bound; the compute-only kernel
  // must be compute_bound and have infinite arithmetic intensity.
  EXPECT_NE(registry.GetLabel("device/kernel/mem_kernel/roofline").value(),
            "compute_bound");
  EXPECT_EQ(registry.GetLabel("device/kernel/compute_kernel/roofline").value(),
            "compute_bound");
  EXPECT_TRUE(std::isinf(
      registry.GetGauge("device/kernel/compute_kernel/arith_intensity").value()));

  // Totals row mirrors the same schema.
  EXPECT_TRUE(registry.HasGauge("device/total/occupancy"));
  EXPECT_TRUE(registry.HasGauge("device/total/dram_bw_util"));
  EXPECT_TRUE(registry.HasLabel("device/total/roofline"));
}

}  // namespace
}  // namespace minuet
