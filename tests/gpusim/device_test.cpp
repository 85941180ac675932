#include "src/gpusim/device.h"

#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/gpusim/device_config.h"
#include "src/trace/trace.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "tests/gpusim/device_peer.h"

namespace minuet {

// The paths GlobalRead and GlobalWrite had before their inline cases: every
// access through AccessLines. The reference the inline paths must reproduce.
struct BlockCtxPeer {
  static void OutOfLineRead(BlockCtx& ctx, const void* addr, size_t bytes) {
    ctx.bytes_read_ += bytes;
    ctx.AccessLines(addr, bytes, /*is_read=*/true);
  }
  static void OutOfLineWrite(BlockCtx& ctx, const void* addr, size_t bytes) {
    ctx.bytes_written_ += bytes;
    ctx.AccessLines(addr, bytes, /*is_read=*/false);
  }
};

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

void ExpectSameStats(const KernelStats& a, const KernelStats& b) {
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

// One read of (offset, bytes) into a 1 KiB device buffer.
struct Read {
  size_t offset;
  size_t bytes;
};

// Runs `reads` as one block on a fresh device, each either through GlobalRead
// or through the out-of-line reference path.
KernelStats RunReads(const std::vector<Read>& reads, bool inline_path) {
  Device dev(TinyConfig());
  DeviceVector<char> data(1024, dev.memory());
  return dev.Launch("reads", LaunchDims{1, 128, 0}, [&](BlockCtx& ctx) {
    for (const Read& r : reads) {
      if (inline_path) {
        ctx.GlobalRead(data.data() + r.offset, r.bytes);
      } else {
        BlockCtxPeer::OutOfLineRead(ctx, data.data() + r.offset, r.bytes);
      }
    }
  });
}

TEST(DeviceTest, InlineReadPathMatchesOutOfLinePath) {
  // Single-line reads that hit and miss the L1, line-straddling reads, a
  // whole-line read, zero-byte reads and repeats: the inline L1-hit path must
  // count exactly what AccessLines counts.
  const std::vector<Read> reads = {
      {0, 4},   {4, 4},    {0, 4},    {124, 8},  {128, 4},   {120, 16}, {256, 128},
      {256, 1}, {383, 1},  {384, 0},  {0, 0},    {1000, 24}, {900, 100}, {900, 4},
      {64, 64}, {127, 2},  {127, 1},  {0, 1024}, {512, 4},  {513, 4},  {640, 0}};
  ExpectSameStats(RunReads(reads, /*inline_path=*/true), RunReads(reads, false));
  // Each case on its own, from a cold L1, and repeated.
  for (const Read& r : reads) {
    SCOPED_TRACE(testing::Message() << "offset " << r.offset << ", " << r.bytes << " bytes");
    const std::vector<Read> repeated(3, r);
    ExpectSameStats(RunReads(repeated, true), RunReads(repeated, false));
  }
}

// Runs `writes` as one block on a fresh device, each either through
// GlobalWrite or through the out-of-line reference path. A read of the
// buffer's first half leaves its lines in the L2, so writes both hit and miss.
KernelStats RunWrites(const std::vector<Read>& writes, bool inline_path) {
  Device dev(TinyConfig());
  DeviceVector<char> data(2048, dev.memory());
  return dev.Launch("writes", LaunchDims{1, 128, 0}, [&](BlockCtx& ctx) {
    ctx.GlobalRead(data.data(), 1024);
    for (const Read& w : writes) {
      if (inline_path) {
        ctx.GlobalWrite(data.data() + w.offset, w.bytes);
      } else {
        BlockCtxPeer::OutOfLineWrite(ctx, data.data() + w.offset, w.bytes);
      }
    }
  });
}

TEST(DeviceTest, InlineWritePathMatchesOutOfLinePath) {
  // Single-line writes that hit and miss the L2, line-straddling writes,
  // whole-line writes and zero-byte writes: the inline one-line path must
  // count exactly what AccessLines counts.
  const std::vector<Read> writes = {
      {0, 4},     {4, 4},    {0, 4},    {124, 8},  {128, 4},   {120, 16},  {256, 128},
      {256, 1},   {383, 1},  {384, 0},  {0, 0},    {1000, 24}, {900, 100}, {1500, 4},
      {1408, 128}, {1535, 2}, {1535, 1}, {0, 2048}, {1100, 4}, {1101, 4}, {2047, 1},
      {2048, 0}};
  ExpectSameStats(RunWrites(writes, /*inline_path=*/true), RunWrites(writes, false));
  // Each case on its own, and repeated.
  for (const Read& w : writes) {
    SCOPED_TRACE(testing::Message() << "offset " << w.offset << ", " << w.bytes << " bytes");
    const std::vector<Read> repeated(3, w);
    ExpectSameStats(RunWrites(repeated, true), RunWrites(repeated, false));
  }
}

TEST(DeviceTest, RepeatedReadMatchesLoopOfReads) {
  // The warp-broadcast call against the loop it replaced, for single-line,
  // line-straddling, multi-line and zero-byte ranges and several counts,
  // with an L1-resident and a cold first read.
  for (const Read& r : std::vector<Read>{{8, 4}, {126, 4}, {0, 128}, {100, 500}, {40, 0}}) {
    for (int64_t count : {0, 1, 2, 3, 8}) {
      for (bool warm : {false, true}) {
        SCOPED_TRACE(testing::Message() << "offset " << r.offset << ", " << r.bytes
                                        << " bytes, count " << count << ", warm " << warm);
        KernelStats stats[2];
        for (int repeated = 0; repeated < 2; ++repeated) {
          Device dev(TinyConfig());
          DeviceVector<char> data(1024, dev.memory());
          stats[repeated] = dev.Launch("reads", LaunchDims{1, 128, 0}, [&](BlockCtx& ctx) {
            if (warm) {
              ctx.GlobalRead(data.data(), data.size());
            }
            if (repeated == 1) {
              ctx.GlobalReadRepeated(data.data() + r.offset, r.bytes, count);
            } else {
              for (int64_t i = 0; i < count; ++i) {
                ctx.GlobalRead(data.data() + r.offset, r.bytes);
              }
            }
          });
        }
        ExpectSameStats(stats[0], stats[1]);
      }
    }
  }
}

TEST(DeviceDeathTest, ReadsOutsideTheArenaStillFail) {
  Device dev(TinyConfig());
  const uintptr_t base = dev.memory()->base();
  const auto at = [](uintptr_t address) { return reinterpret_cast<const void*>(address); };
  const uintptr_t last_line = base + DeviceMemory::kReserveBytes - 128;
  // Below the arena: the device address wraps to far beyond it.
  EXPECT_DEATH(dev.Launch("k", LaunchDims{1, 128, 0},
                          [&](BlockCtx& ctx) { ctx.GlobalRead(at(base - 4), 4); }),
               "outside device memory");
  // Off the arena's end from an L1-resident last line: the read starts on
  // that line, so only the one-line condition keeps it off the inline path.
  EXPECT_DEATH(dev.Launch("k", LaunchDims{1, 128, 0},
                          [&](BlockCtx& ctx) {
                            ctx.GlobalRead(at(last_line), 4);
                            ctx.GlobalRead(at(last_line + 124), 8);
                          }),
               "outside device memory");
  EXPECT_DEATH(dev.Launch("k", LaunchDims{1, 128, 0},
                          [&](BlockCtx& ctx) { ctx.GlobalReadRepeated(at(base - 4), 4, 2); }),
               "outside device memory");
  // A repeated range the L1 cannot hold has no exact shortcut.
  DeviceVector<char> big(129 * 128, dev.memory());
  EXPECT_DEATH(dev.Launch("k", LaunchDims{1, 128, 0},
                          [&](BlockCtx& ctx) { ctx.GlobalReadRepeated(big.data(), big.size(), 2); }),
               "must fit the L1");
}

TEST(DeviceDeathTest, WritesOutsideTheArenaStillFail) {
  Device dev(TinyConfig());
  const uintptr_t base = dev.memory()->base();
  const auto at = [](uintptr_t address) { return reinterpret_cast<void*>(address); };
  const uintptr_t end = base + DeviceMemory::kReserveBytes;
  // Below the arena, on one line and straddling into it: the device address
  // wraps to far beyond the arena.
  EXPECT_DEATH(dev.Launch("k", LaunchDims{1, 128, 0},
                          [&](BlockCtx& ctx) { ctx.GlobalWrite(at(base - 4), 4); }),
               "outside device memory");
  EXPECT_DEATH(dev.Launch("k", LaunchDims{1, 128, 0},
                          [&](BlockCtx& ctx) { ctx.GlobalWrite(at(base - 4), 8); }),
               "outside device memory");
  // Past the arena's end: at it on one line, and straddling it from the last
  // line, where only the one-line condition keeps the write off the inline
  // path.
  EXPECT_DEATH(dev.Launch("k", LaunchDims{1, 128, 0},
                          [&](BlockCtx& ctx) { ctx.GlobalWrite(at(end), 4); }),
               "outside device memory");
  EXPECT_DEATH(dev.Launch("k", LaunchDims{1, 128, 0},
                          [&](BlockCtx& ctx) { ctx.GlobalWrite(at(end - 4), 8); }),
               "outside device memory");
}

TEST(DeviceTest, GemmPayloadRunsInsideTheKernelSpan) {
  // The functional arithmetic handed to LaunchGemm runs once, inside the
  // kernel span, so the span's host duration covers it. The simulated stats
  // are those of a launch without a payload.
  Device plain(TinyConfig());
  const KernelStats expected = plain.LaunchGemm("g", 256, 64, 64, /*batch=*/2);

  Device dev(TinyConfig());
  trace::Tracer tracer;
  trace::Tracer::Install(&tracer);
  int runs = 0;
  const KernelStats stats =
      dev.LaunchGemm("g", 256, 64, 64, /*batch=*/2, /*efficiency=*/1.0,
                     /*bytes_per_element=*/4.0, [&] {
                       ++runs;
                       std::this_thread::sleep_for(std::chrono::milliseconds(20));
                     });
  trace::Tracer::Install(nullptr);
  EXPECT_EQ(runs, 1);
  ExpectSameStats(stats, expected);
  ASSERT_EQ(tracer.CountCategory("kernel"), 1);
  EXPECT_GE(tracer.spans()[0].HostDurationUs(), 20000.0);
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

// A kernel whose block b makes a block-dependent number of reads over a
// 4 MiB source (single-line, straddling, repeated and long ones, so the L2
// both hits and misses) and writes its own 64-word slice of `dst`. Block 5
// makes a burst of 5,000 lines, longer than a ring slot's default.
KernelStats RunMixedKernel(Device& dev, const DeviceVector<uint32_t>& src,
                           DeviceVector<uint32_t>& dst, int64_t blocks, bool independent) {
  const LaunchDims dims{blocks, 128, 0, independent};
  return dev.Launch("mixed", dims, [&](BlockCtx& ctx) {
    const int64_t b = ctx.block_index();
    const size_t n = src.size();
    const int reads = static_cast<int>(b % 7) * 20 + 5;
    for (int i = 0; i < reads; ++i) {
      const size_t at = (static_cast<size_t>(b) * 7919 + static_cast<size_t>(i) * 131) % (n - 512);
      ctx.GlobalRead(&src[at], static_cast<size_t>(i % 5) * 40 + 4);
      ctx.GlobalReadRepeated(&src[at / 2], 8, i % 3);
    }
    if (b == 5) {
      ctx.GlobalRead(&src[0], 5000 * 128);
    }
    uint32_t* slice = &dst[static_cast<size_t>(b) * 64];
    for (int i = 0; i < 64; ++i) {
      slice[i] = static_cast<uint32_t>(b * 64 + i);
    }
    ctx.GlobalWrite(slice, 64 * sizeof(uint32_t));
    ctx.Compute(static_cast<uint64_t>(reads) * 3);
    ctx.SharedWrite(static_cast<size_t>(b % 4) * 64);
  });
}

// Three launches on one device, so each starts from the L2 the last left:
// a declared one with a partial last chunk, an undeclared one and a declared
// one of one chunk.
struct MixedRun {
  std::vector<KernelStats> stats;
  std::vector<uint32_t> payload;
};

MixedRun RunMixedLaunches(Device& dev) {
  DeviceVector<uint32_t> src(size_t{1} << 20, 1u, dev.memory());
  DeviceVector<uint32_t> dst(size_t{301} * 64, 0u, dev.memory());
  MixedRun run;
  run.stats.push_back(RunMixedKernel(dev, src, dst, 301, /*independent=*/true));
  run.stats.push_back(RunMixedKernel(dev, src, dst, 60, /*independent=*/false));
  run.stats.push_back(RunMixedKernel(dev, src, dst, 8, /*independent=*/true));
  run.payload.assign(dst.begin(), dst.end());
  return run;
}

TEST(ParallelLaunchTest, DeclaredKernelMatchesSerialInEveryMode) {
  Device serial(TinyConfig());
  DevicePeer::SetParallelMinBlocks(serial, std::numeric_limits<int64_t>::max());
  const MixedRun want = RunMixedLaunches(serial);
  EXPECT_GT(want.stats[0].l2_hits, 0u);
  EXPECT_GT(want.stats[0].l2_misses, 0u);
  for (const LaunchMode& mode : ParallelLaunchModes()) {
    SCOPED_TRACE(mode.name);
    Device dev(TinyConfig());
    ApplyLaunchMode(dev, mode);
    const MixedRun got = RunMixedLaunches(dev);
    for (size_t i = 0; i < want.stats.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "launch " << i);
      ExpectSameKernelStats(got.stats[i], want.stats[i]);
    }
    ExpectSameDeviceState(dev, serial);
    EXPECT_EQ(got.payload, want.payload);
  }
}

// The thread that ran each block of a 64-block launch.
std::vector<std::thread::id> BlockThreads(Device& dev, bool independent) {
  std::vector<std::thread::id> threads(64);
  const LaunchDims dims{64, 128, 0, independent};
  dev.Launch("where", dims, [&](BlockCtx& ctx) {
    threads[static_cast<size_t>(ctx.block_index())] = std::this_thread::get_id();
  });
  return threads;
}

TEST(ParallelLaunchTest, UndeclaredAndNestedLaunchesRunOnTheCaller) {
  Device dev(TinyConfig());
  DevicePeer::SetParallelMinBlocks(dev, 0);
  const std::vector<std::thread::id> caller(64, std::this_thread::get_id());
  EXPECT_EQ(BlockThreads(dev, /*independent=*/false), caller);
  // Inside a ParallelFor, even a declared launch stays on its thread.
  std::vector<std::thread::id> nested;
  ParallelFor(1, [&](int, int64_t) { nested = BlockThreads(dev, /*independent=*/true); });
  EXPECT_EQ(nested, caller);
}

}  // namespace
}  // namespace minuet
