#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/dense_reference.h"
#include "src/core/weight_offsets.h"
#include "src/gmas/autotune.h"
#include "src/gmas/executor.h"
#include "src/gmas/metadata.h"
#include "src/gpusim/device_config.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace minuet {
namespace {

PointCloud RandomCloud(int target, int span, int64_t channels, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<uint64_t> keys;
  for (int i = 0; i < target; ++i) {
    keys.push_back(PackCoord(
        Coord3{rng.NextInt(-span, span), rng.NextInt(-span, span), rng.NextInt(-span, span)}));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  PointCloud cloud;
  for (uint64_t k : keys) {
    cloud.coords.push_back(UnpackCoord(k));
  }
  cloud.features = FeatureMatrix(static_cast<int64_t>(keys.size()), channels);
  for (int64_t i = 0; i < cloud.features.rows(); ++i) {
    for (int64_t j = 0; j < channels; ++j) {
      cloud.features.At(i, j) = static_cast<float>(rng.NextGaussian());
    }
  }
  return cloud;
}

std::vector<FeatureMatrix> RandomWeights(size_t count, int64_t c_in, int64_t c_out,
                                         uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<FeatureMatrix> weights;
  for (size_t k = 0; k < count; ++k) {
    FeatureMatrix w(c_in, c_out);
    for (int64_t a = 0; a < c_in; ++a) {
      for (int64_t b = 0; b < c_out; ++b) {
        w.At(a, b) = static_cast<float>(rng.NextGaussian() * 0.2);
      }
    }
    weights.push_back(std::move(w));
  }
  return weights;
}

KernelMap MakeMap(Device& dev, const PointCloud& cloud, const std::vector<Coord3>& out_coords,
                  const std::vector<Coord3>& offsets) {
  return CompactPositionTable(ReferenceMapPositions(cloud.coords, out_coords, offsets), offsets,
                              dev.memory());
}

TEST(BlockedGemmTest, MatchesNaive) {
  Pcg32 rng(1);
  const int64_t m = 37, k = 29, n = 23;
  std::vector<float> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n));
  for (auto& v : a) {
    v = static_cast<float>(rng.NextGaussian());
  }
  for (auto& v : b) {
    v = static_cast<float>(rng.NextGaussian());
  }
  std::vector<float> c_blocked(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> c_naive(static_cast<size_t>(m * n), 0.0f);
  BlockedGemm(a.data(), b.data(), c_blocked.data(), m, k, n, GemmWrite::kAccumulate);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      for (int64_t j = 0; j < n; ++j) {
        c_naive[static_cast<size_t>(i * n + j)] +=
            a[static_cast<size_t>(i * k + p)] * b[static_cast<size_t>(p * n + j)];
      }
    }
  }
  for (size_t i = 0; i < c_naive.size(); ++i) {
    EXPECT_NEAR(c_blocked[i], c_naive[i], 1e-4f);
  }
}

// The scalar definition BlockedGemm must reproduce bit for bit: per element,
// products added in ascending p, zero A entries skipped.
void ScalarGemm(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      if (av == 0.0f) {
        continue;
      }
      for (int64_t j = 0; j < n; ++j) {
        const float prod = av * b[p * n + j];
        c[i * n + j] = c[i * n + j] + prod;
      }
    }
  }
}

TEST(BlockedGemmTest, BitIdenticalToScalarDefinition) {
  // Shapes cover full 4-row tiles and row tails, 16- and 8-column tiles and
  // column tails, and n below one vector.
  const int64_t shapes[][3] = {{1, 1, 1},   {3, 5, 7},   {4, 16, 16}, {5, 3, 8},
                               {7, 29, 20}, {9, 64, 33}, {37, 29, 23}, {66, 128, 96}};
  Pcg32 rng(7);
  for (const auto& shape : shapes) {
    const int64_t m = shape[0], k = shape[1], n = shape[2];
    std::vector<float> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n));
    std::vector<float> c(static_cast<size_t>(m * n));
    for (auto& v : a) {
      v = rng.NextInt(0, 3) == 0 ? 0.0f : static_cast<float>(rng.NextGaussian());
    }
    for (auto& v : b) {
      v = static_cast<float>(rng.NextGaussian());
    }
    for (auto& v : c) {
      v = rng.NextInt(0, 4) == 0 ? -0.0f : static_cast<float>(rng.NextGaussian());
    }
    // A skipped p must not touch C even where B holds an infinity.
    a[0] = 0.0f;
    b[0] = std::numeric_limits<float>::infinity();
    std::vector<float> want = c;
    ScalarGemm(a.data(), b.data(), want.data(), m, k, n);
    BlockedGemm(a.data(), b.data(), c.data(), m, k, n, GemmWrite::kAccumulate);
    EXPECT_EQ(std::memcmp(c.data(), want.data(), c.size() * sizeof(float)), 0)
        << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(BlockedGemmTest, OverwriteEqualsAccumulateIntoPositiveZero) {
  // The BitIdenticalToScalarDefinition shapes. Every fourth A row is all
  // zero, so its C row is +0.0f, never left as it was; elsewhere some
  // products underflow to -0.0f, which the +0.0f start absorbs the same way
  // in both forms.
  const int64_t shapes[][3] = {{1, 1, 1},   {3, 5, 7},   {4, 16, 16}, {5, 3, 8},
                               {7, 29, 20}, {9, 64, 33}, {37, 29, 23}, {66, 128, 96}};
  Pcg32 rng(11);
  for (const auto& shape : shapes) {
    const int64_t m = shape[0], k = shape[1], n = shape[2];
    std::vector<float> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n));
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t p = 0; p < k; ++p) {
        float& v = a[static_cast<size_t>(i * k + p)];
        if (i % 4 == 3) {
          v = 0.0f;
        } else if (rng.NextInt(0, 3) == 0) {
          v = -1e-30f;  // times a B value of 1e-30f: rounds to -0.0f
        } else {
          v = rng.NextInt(0, 3) == 0 ? 0.0f : static_cast<float>(rng.NextGaussian());
        }
      }
    }
    for (auto& v : b) {
      v = rng.NextInt(0, 2) == 0 ? 1e-30f : static_cast<float>(rng.NextGaussian());
    }
    std::vector<float> accumulated(static_cast<size_t>(m * n), 0.0f);
    BlockedGemm(a.data(), b.data(), accumulated.data(), m, k, n, GemmWrite::kAccumulate);
    std::vector<float> overwritten(static_cast<size_t>(m * n),
                                   std::numeric_limits<float>::quiet_NaN());
    BlockedGemm(a.data(), b.data(), overwritten.data(), m, k, n, GemmWrite::kOverwrite);
    EXPECT_EQ(std::memcmp(overwritten.data(), accumulated.data(),
                          accumulated.size() * sizeof(float)),
              0)
        << "m=" << m << " k=" << k << " n=" << n;
    std::vector<float> want(static_cast<size_t>(m * n), 0.0f);
    ScalarGemm(a.data(), b.data(), want.data(), m, k, n);
    EXPECT_EQ(std::memcmp(overwritten.data(), want.data(), want.size() * sizeof(float)), 0)
        << "m=" << m << " k=" << k << " n=" << n;
  }
  // A product that rounds to -0.0f leaves the +0.0f start as it is.
  const float a = -1e-30f, b = 1e-30f;
  float c = std::numeric_limits<float>::quiet_NaN();
  BlockedGemm(&a, &b, &c, 1, 1, 1, GemmWrite::kOverwrite);
  EXPECT_FALSE(std::signbit(c));
  EXPECT_EQ(c, 0.0f);
}

TEST(ExecuteGroupedGemmsTest, PoolSplitMatchesInlineRunBitForBit) {
  // Offsets of several row tasks each, tails included, an empty offset and
  // groups with padding. The launch on the pool splits the rows across
  // workers; the same launch from inside a ParallelFor item runs inline on
  // one thread. Both write NaN-filled output buffers, whose padding rows
  // they must leave alone.
  const std::vector<int64_t> sizes = {700, 1029, 0, 5, 513, 256, 37, 900};
  const int64_t c_in = 24, c_out = 40;
  const GroupingPlan plan = PlanGemmGroups(sizes, GroupingStrategy::kSortedOrder, 0.5);
  ASSERT_GT(plan.padded_rows(), 0);
  const std::vector<FeatureMatrix> weights = RandomWeights(sizes.size(), c_in, c_out, 3);
  FeatureMatrix in_buffer(plan.buffer_rows, c_in);
  Pcg32 rng(5);
  for (int64_t i = 0; i < in_buffer.rows(); ++i) {
    for (int64_t j = 0; j < c_in; ++j) {
      in_buffer.At(i, j) = rng.NextInt(0, 4) == 0 ? 0.0f : static_cast<float>(rng.NextGaussian());
    }
  }
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto run = [&](FeatureMatrix& out) {
    Device device(MakeA100());
    ExecuteGroupedGemms(device, plan, sizes, in_buffer, weights, out, /*num_streams=*/4,
                        /*functional=*/true);
  };
  FeatureMatrix parallel(plan.buffer_rows, c_out, nan);
  run(parallel);
  FeatureMatrix inline_run(plan.buffer_rows, c_out, nan);
  ParallelFor(2, [&](int, int64_t i) {
    if (i == 0) {
      run(inline_run);
    }
  });
  EXPECT_EQ(std::memcmp(parallel.data(), inline_run.data(),
                        static_cast<size_t>(plan.buffer_rows * c_out) * sizeof(float)),
            0);
  // Real rows hold the product, each through BlockedGemm's own definition;
  // padding rows keep their NaN.
  std::vector<bool> real(static_cast<size_t>(plan.buffer_rows), false);
  for (size_t k = 0; k < sizes.size(); ++k) {
    if (sizes[k] == 0) {
      continue;
    }
    const int64_t base = plan.buffer_base[k];
    std::fill_n(real.begin() + base, sizes[k], true);
    std::vector<float> want(static_cast<size_t>(sizes[k] * c_out), 0.0f);
    ScalarGemm(in_buffer.data() + base * c_in, weights[k].data(), want.data(), sizes[k], c_in,
               c_out);
    EXPECT_EQ(std::memcmp(parallel.data() + base * c_out, want.data(),
                          want.size() * sizeof(float)),
              0)
        << "offset " << k;
  }
  for (int64_t i = 0; i < plan.buffer_rows; ++i) {
    if (!real[static_cast<size_t>(i)]) {
      ASSERT_TRUE(std::isnan(parallel.At(i, 0))) << "padding row " << i;
    }
  }
}

TEST(StreamPoolTest, HidesLaunchOverheadAcrossStreams) {
  // 8 kernels of 100 cycles each incl. 40 cycles launch overhead, 4 streams:
  // execution serialises (480 cycles) but only ceil(8/4)=2 launch rounds show.
  StreamPool pool(4, 40.0);
  for (int i = 0; i < 8; ++i) {
    pool.Submit(100.0);
  }
  EXPECT_DOUBLE_EQ(pool.SumCycles(), 800.0);
  EXPECT_DOUBLE_EQ(pool.ElapsedCycles(), 480.0 + 2 * 40.0);
}

TEST(StreamPoolTest, SingleStreamIsSerial) {
  StreamPool pool(1, 5.0);
  pool.Submit(10.0);
  pool.Submit(30.0);
  EXPECT_DOUBLE_EQ(pool.ElapsedCycles(), 40.0);
}

TEST(StreamPoolTest, LaunchBoundKernelsBenefitMost) {
  // 16 tiny kernels that are pure launch overhead: 4 streams cut the elapsed
  // launch cost 4x.
  StreamPool serial(1, 100.0);
  StreamPool pooled(4, 100.0);
  for (int i = 0; i < 16; ++i) {
    serial.Submit(100.0);
    pooled.Submit(100.0);
  }
  EXPECT_DOUBLE_EQ(serial.ElapsedCycles(), 1600.0);
  EXPECT_DOUBLE_EQ(pooled.ElapsedCycles(), 400.0);
}

TEST(MetadataTest, SlotsMatchKernelMapEntries) {
  Device dev(MakeRtx3090());
  PointCloud cloud = RandomCloud(200, 8, 4, 2);
  auto offsets = MakeWeightOffsets(3, 1);
  KernelMap map = MakeMap(dev, cloud, cloud.coords, offsets);
  GroupingPlan plan = PlanGemmGroups(map.EntryCounts(), GroupingStrategy::kSortedOrder);
  MetadataTables tables =
      BuildMetadataTables(dev, map, plan, cloud.num_points(), cloud.num_points(), nullptr);

  std::vector<bool> slot_used(static_cast<size_t>(plan.buffer_rows), false);
  for (int64_t k = 0; k < map.num_offsets(); ++k) {
    const auto& entries = map.entries[static_cast<size_t>(k)];
    for (size_t e = 0; e < entries.size(); ++e) {
      uint32_t in_slot = tables.InputSlot(k, entries[e].input_index);
      uint32_t out_slot = tables.OutputSlot(k, entries[e].output_index);
      ASSERT_NE(in_slot, kNoMatch);
      EXPECT_EQ(in_slot, out_slot);
      EXPECT_EQ(in_slot, static_cast<uint32_t>(plan.buffer_base[k] + static_cast<int64_t>(e)));
      EXPECT_FALSE(slot_used[in_slot]);
      slot_used[in_slot] = true;
    }
  }
  // Entries without a match stay kNoMatch.
  int64_t imt_valid = 0;
  for (uint32_t v : tables.imt) {
    if (v != kNoMatch) {
      ++imt_valid;
    }
  }
  EXPECT_EQ(imt_valid, map.TotalEntries());
}

struct PipelineCase {
  GroupingStrategy strategy;
  int gather_tile;
  int scatter_tile;
};

class GmasPipelineSuite : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(GmasPipelineSuite, MatchesReferenceConv) {
  const PipelineCase& param = GetParam();
  Device dev(MakeRtx3090());
  const int64_t c_in = 8, c_out = 12;
  PointCloud cloud = RandomCloud(400, 10, c_in, 3);
  auto offsets = MakeWeightOffsets(3, 1);
  auto weights = RandomWeights(offsets.size(), c_in, c_out, 4);
  KernelMap map = MakeMap(dev, cloud, cloud.coords, offsets);
  const FeatureMatrix features(cloud.features, dev.memory());

  GmasConfig cfg;
  cfg.grouping = param.strategy;
  cfg.gather_tile = param.gather_tile;
  cfg.scatter_tile = param.scatter_tile;
  FeatureMatrix got(cloud.num_points(), c_out, 0.0f, dev.memory());
  RunGatherGemmScatter(dev, map, features, weights, got, cfg);

  FeatureMatrix expect = ReferenceSparseConv(cloud, cloud.coords, offsets, weights);
  EXPECT_LT(MaxAbsDiff(got, expect), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GmasPipelineSuite,
    ::testing::Values(PipelineCase{GroupingStrategy::kNoBatch, 4, 4},
                      PipelineCase{GroupingStrategy::kMapOrder, 4, 4},
                      PipelineCase{GroupingStrategy::kSortedOrder, 4, 4},
                      PipelineCase{GroupingStrategy::kSortedOrder, 1, 1},
                      PipelineCase{GroupingStrategy::kSortedOrder, 8, 12},
                      PipelineCase{GroupingStrategy::kSortedOrder, 2, 6}),
    [](const ::testing::TestParamInfo<PipelineCase>& info) {
      return std::string(GroupingStrategyName(info.param.strategy)) + "_g" +
             std::to_string(info.param.gather_tile) + "_s" +
             std::to_string(info.param.scatter_tile);
    });

TEST(GmasTest, FusedDataflowMatchesReference) {
  Device dev(MakeRtx3090());
  const int64_t c_in = 6, c_out = 10;
  PointCloud cloud = RandomCloud(300, 9, c_in, 5);
  auto offsets = MakeWeightOffsets(3, 1);
  auto weights = RandomWeights(offsets.size(), c_in, c_out, 6);
  KernelMap map = MakeMap(dev, cloud, cloud.coords, offsets);
  const FeatureMatrix features(cloud.features, dev.memory());

  FeatureMatrix out(cloud.num_points(), c_out, 0.0f, dev.memory());
  GmasResult got = RunPerOffsetFused(dev, map, features, weights, out, true);
  FeatureMatrix expect = ReferenceSparseConv(cloud, cloud.coords, offsets, weights);
  EXPECT_LT(MaxAbsDiff(out, expect), 1e-4f);
  EXPECT_DOUBLE_EQ(got.stats.plan.PaddingOverhead(), 0.0);
}

TEST(GmasTest, StridedConvMatchesReference) {
  Device dev(MakeRtx3090());
  const int64_t c_in = 4, c_out = 8;
  PointCloud cloud = RandomCloud(500, 14, c_in, 7);
  auto out_coords = DownsampleCoords(cloud.coords, 2);
  auto offsets = MakeWeightOffsets(2, 1);
  auto weights = RandomWeights(offsets.size(), c_in, c_out, 8);
  KernelMap map = MakeMap(dev, cloud, out_coords, offsets);
  const FeatureMatrix features(cloud.features, dev.memory());

  GmasConfig cfg;
  FeatureMatrix got(static_cast<int64_t>(out_coords.size()), c_out, 0.0f, dev.memory());
  RunGatherGemmScatter(dev, map, features, weights, got, cfg);
  FeatureMatrix expect = ReferenceSparseConv(cloud, out_coords, offsets, weights);
  EXPECT_LT(MaxAbsDiff(got, expect), 1e-4f);
}

TEST(GmasTest, TimingOnlyModeChargesSameKernels) {
  const int64_t c_in = 8, c_out = 8;
  PointCloud cloud = RandomCloud(300, 10, c_in, 9);
  auto offsets = MakeWeightOffsets(3, 1);
  auto weights = RandomWeights(offsets.size(), c_in, c_out, 10);

  GmasConfig functional;
  GmasConfig timing = functional;
  timing.functional = false;

  // Two devices running the same allocation sequence: every statistic is
  // exact, since the cache model keys on device addresses.
  Device dev_a(MakeRtx3090());
  KernelMap map_a = MakeMap(dev_a, cloud, cloud.coords, offsets);
  const FeatureMatrix features_a(cloud.features, dev_a.memory());
  FeatureMatrix out_a(cloud.num_points(), c_out, 0.0f, dev_a.memory());
  GmasResult a = RunGatherGemmScatter(dev_a, map_a, features_a, weights, out_a, functional);
  Device dev_b(MakeRtx3090());
  KernelMap map_b = MakeMap(dev_b, cloud, cloud.coords, offsets);
  const FeatureMatrix features_b(cloud.features, dev_b.memory());
  FeatureMatrix out_b(cloud.num_points(), c_out, 0.0f, dev_b.memory());
  GmasResult b = RunGatherGemmScatter(dev_b, map_b, features_b, weights, out_b, timing);
  EXPECT_EQ(a.stats.TotalCycles(), b.stats.TotalCycles());
  EXPECT_EQ(a.stats.Combined().l2_hits, b.stats.Combined().l2_hits);
  EXPECT_EQ(a.stats.Combined().num_launches, b.stats.Combined().num_launches);
  EXPECT_EQ(a.stats.Combined().global_bytes_read, b.stats.Combined().global_bytes_read);
  EXPECT_EQ(a.stats.Combined().global_bytes_written, b.stats.Combined().global_bytes_written);
  // Timing-only output is all zeros.
  FeatureMatrix zeros(out_b.rows(), out_b.cols(), 0.0f);
  EXPECT_EQ(MaxAbsDiff(out_b, zeros), 0.0f);
}

// |a - b| <= tol everywhere; unlike MaxAbsDiff, a NaN anywhere fails.
bool AllClose(const FeatureMatrix& a, const FeatureMatrix& b, float tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return false;
  }
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) {
      if (!(std::fabs(a.At(i, j) - b.At(i, j)) <= tol)) {
        return false;
      }
    }
  }
  return true;
}

TEST(GmasTest, StagingBufferGarbageNeverReachesOutput) {
  // The staging buffers start indeterminate. On NaN-dirtied device memory a
  // functional run must still match the reference (ClearBuffer defines them)
  // and a timing-only run must still return zeros, pooled or not.
  const int64_t c_in = 8, c_out = 8;
  PointCloud cloud = RandomCloud(300, 10, c_in, 9);
  auto offsets = MakeWeightOffsets(3, 1);
  auto weights = RandomWeights(offsets.size(), c_in, c_out, 10);
  const FeatureMatrix expect = ReferenceSparseConv(cloud, cloud.coords, offsets, weights);
  const FeatureMatrix zeros(cloud.num_points(), c_out);
  // Covers both staging buffers at full padding, the output and the tables.
  const int64_t dirty_floats =
      4 * static_cast<int64_t>(offsets.size()) * cloud.num_points() * (c_in + c_out);

  for (bool pooled : {false, true}) {
    for (bool functional : {true, false}) {
      SCOPED_TRACE(testing::Message() << "pooled " << pooled << ", functional " << functional);
      Device dev(MakeRtx3090());
      WorkspacePool pool(dev.memory());
      KernelMap map = MakeMap(dev, cloud, cloud.coords, offsets);
      const FeatureMatrix features(cloud.features, dev.memory());
      {
        // Freed NaN pages stay dirty while the map and features keep the
        // arena from emptying; the run's buffers land on them.
        FeatureMatrix nan(dirty_floats, 1, std::numeric_limits<float>::quiet_NaN(),
                          dev.memory());
      }

      GmasConfig cfg;
      cfg.functional = functional;
      GmasScratch scratch;
      scratch.pool = pooled ? &pool : nullptr;
      const size_t out_floats = static_cast<size_t>(cloud.num_points() * c_out);
      FeatureMatrix got =
          pooled ? FeatureMatrix(cloud.num_points(), c_out, pool.Acquire(out_floats, true))
                 : FeatureMatrix(cloud.num_points(), c_out, 0.0f, dev.memory());
      RunGatherGemmScatter(dev, map, features, weights, got, cfg, &scratch);
      EXPECT_TRUE(AllClose(got, functional ? expect : zeros, functional ? 1e-4f : 0.0f));
    }
  }
}

// The three ways to run a sparse conv's GMaS step.
struct Dataflow {
  const char* name;
  bool fused;   // RunPerOffsetFused instead of RunGatherGemmScatter
  bool pooled;  // staging buffers and output from a WorkspacePool
};
constexpr Dataflow kDataflows[] = {
    {"batched", false, false}, {"batched, pooled", false, true}, {"fused", true, false}};

void RunDataflow(const Dataflow& dataflow, Device& dev, WorkspacePool& pool,
                 const KernelMap& map, const FeatureMatrix& features,
                 const std::vector<FeatureMatrix>& weights, FeatureMatrix& output,
                 bool functional) {
  if (dataflow.fused) {
    RunPerOffsetFused(dev, map, features, weights, output, functional);
    return;
  }
  GmasConfig cfg;
  cfg.functional = functional;
  GmasScratch scratch;
  scratch.pool = dataflow.pooled ? &pool : nullptr;
  RunGatherGemmScatter(dev, map, features, weights, output, cfg, &scratch);
}

// A NaN-filled output: a pool slab for a pooled dataflow, a fresh device
// range otherwise.
FeatureMatrix NanOutput(const Dataflow& dataflow, Device& dev, WorkspacePool& pool, int64_t rows,
                        int64_t cols) {
  FeatureMatrix output =
      dataflow.pooled
          ? FeatureMatrix(rows, cols, pool.Acquire(static_cast<size_t>(rows * cols), false))
          : FeatureMatrix::Uninitialized(rows, cols, dev.memory());
  output.Fill(std::numeric_limits<float>::quiet_NaN());
  return output;
}

TEST(GmasTest, TimingOnlyRunsLeaveTheCallersOutputUntouched) {
  // Timing-only mode reads and writes no payload: a NaN-filled output comes
  // back bit for bit as it went in, and no weights are needed.
  const int64_t c_in = 8, c_out = 12;
  PointCloud cloud = RandomCloud(300, 10, c_in, 31);
  auto offsets = MakeWeightOffsets(3, 1);
  for (const Dataflow& dataflow : kDataflows) {
    SCOPED_TRACE(dataflow.name);
    Device dev(MakeRtx3090());
    WorkspacePool pool(dev.memory());
    KernelMap map = MakeMap(dev, cloud, cloud.coords, offsets);
    const FeatureMatrix features(cloud.features, dev.memory());
    {
      FeatureMatrix nan(int64_t{1} << 20, 1, std::numeric_limits<float>::quiet_NaN(),
                        dev.memory());
    }
    FeatureMatrix output = NanOutput(dataflow, dev, pool, cloud.num_points(), c_out);
    const std::vector<float> before(output.data(), output.data() + output.rows() * c_out);

    RunDataflow(dataflow, dev, pool, map, features, /*weights=*/{}, output, false);
    EXPECT_GT(dev.totals().num_launches, 0);
    ASSERT_EQ(output.rows(), cloud.num_points());
    ASSERT_EQ(output.cols(), c_out);
    EXPECT_EQ(std::memcmp(output.data(), before.data(), before.size() * sizeof(float)), 0);
  }
}

TEST(GmasTest, FunctionalRunsDefineEveryOutputElement) {
  // A functional run defines its whole output itself: started from NaN-filled
  // storage it still matches the reference, also when no offset has an entry.
  const int64_t c_in = 8, c_out = 12;
  PointCloud cloud = RandomCloud(300, 10, c_in, 32);
  auto offsets = MakeWeightOffsets(3, 1);
  auto weights = RandomWeights(offsets.size(), c_in, c_out, 33);
  for (bool empty_map : {false, true}) {
    for (const Dataflow& dataflow : kDataflows) {
      SCOPED_TRACE(testing::Message() << dataflow.name << ", empty map " << empty_map);
      Device dev(MakeRtx3090());
      WorkspacePool pool(dev.memory());
      KernelMap map = MakeMap(dev, cloud, cloud.coords, offsets);
      if (empty_map) {
        for (auto& entries : map.entries) {
          entries.clear();
        }
      }
      const FeatureMatrix features(cloud.features, dev.memory());
      {
        FeatureMatrix nan(int64_t{1} << 20, 1, std::numeric_limits<float>::quiet_NaN(),
                          dev.memory());
      }
      FeatureMatrix output = NanOutput(dataflow, dev, pool, cloud.num_points(), c_out);

      RunDataflow(dataflow, dev, pool, map, features, weights, output, true);
      const FeatureMatrix expect =
          empty_map ? FeatureMatrix(cloud.num_points(), c_out)
                    : ReferenceSparseConv(cloud, cloud.coords, offsets, weights);
      EXPECT_TRUE(AllClose(output, expect, 1e-4f));
    }
  }
}

TEST(GmasTest, EmptyKernelMap) {
  Device dev(MakeRtx3090());
  KernelMap map;
  map.offsets = MakeWeightOffsets(3, 1);
  map.entries.resize(map.offsets.size());
  FeatureMatrix input(10, 4);
  auto weights = RandomWeights(map.offsets.size(), 4, 4, 11);
  GmasConfig cfg;
  FeatureMatrix got(10, 4);
  RunGatherGemmScatter(dev, map, input, weights, got, cfg);
  EXPECT_EQ(got.rows(), 10);
  FeatureMatrix zeros(10, 4, 0.0f);
  EXPECT_EQ(MaxAbsDiff(got, zeros), 0.0f);
}

TEST(AutotuneTest, ReturnsDivisorAndMinimum) {
  Device dev(MakeRtx3090());
  PointCloud cloud = RandomCloud(2000, 20, 32, 12);
  auto offsets = MakeWeightOffsets(3, 1);
  KernelMap map = MakeMap(dev, cloud, cloud.coords, offsets);
  GroupingPlan plan = PlanGemmGroups(map.EntryCounts(), GroupingStrategy::kSortedOrder);
  MetadataTables tables =
      BuildMetadataTables(dev, map, plan, cloud.num_points(), cloud.num_points(), nullptr);

  AutotuneOutcome outcome = AutotuneGatherTile(dev, tables, 32);
  EXPECT_EQ(32 % outcome.best_tile, 0);
  EXPECT_EQ(outcome.profile.size(), CandidateTileSizes(32).size());
  for (const auto& [tile, cycles] : outcome.profile) {
    EXPECT_GE(cycles, outcome.best_cycles);
  }
}

TEST(AutotuneTest, DeterministicAcrossRuns) {
  Device dev(MakeRtx3090());
  PointCloud cloud = RandomCloud(1000, 15, 16, 13);
  auto offsets = MakeWeightOffsets(3, 1);
  KernelMap map = MakeMap(dev, cloud, cloud.coords, offsets);
  GroupingPlan plan = PlanGemmGroups(map.EntryCounts(), GroupingStrategy::kSortedOrder);
  MetadataTables tables =
      BuildMetadataTables(dev, map, plan, cloud.num_points(), cloud.num_points(), nullptr);
  AutotuneOutcome a = AutotuneGatherTile(dev, tables, 16);
  AutotuneOutcome b = AutotuneGatherTile(dev, tables, 16);
  EXPECT_EQ(a.best_tile, b.best_tile);
  EXPECT_DOUBLE_EQ(a.best_cycles, b.best_cycles);
}

TEST(AutotuneTest, ScatterProfilesAllDivisors) {
  Device dev(MakeRtx3090());
  PointCloud cloud = RandomCloud(1000, 15, 12, 14);
  auto offsets = MakeWeightOffsets(3, 1);
  KernelMap map = MakeMap(dev, cloud, cloud.coords, offsets);
  GroupingPlan plan = PlanGemmGroups(map.EntryCounts(), GroupingStrategy::kSortedOrder);
  MetadataTables tables =
      BuildMetadataTables(dev, map, plan, cloud.num_points(), cloud.num_points(), nullptr);
  AutotuneOutcome outcome = AutotuneScatterTile(dev, tables, 12);
  // Divisors of 12: 1, 2, 3, 4, 6, 12.
  EXPECT_EQ(outcome.profile.size(), 6u);
  EXPECT_EQ(12 % outcome.best_tile, 0);
}

TEST(AutotuneTest, ForkedCandidatesMatchSerialColdRuns) {
  // Candidates run on forks across worker threads; each must charge exactly
  // what a serial run on the parent charges from a flushed L2. The 2070
  // Super's L2 takes the set-mask path, the 3090's and A100's the modulo
  // path. 48 channels give 10 candidates, more than there are workers.
  constexpr int64_t kChannels = 48;
  for (const DeviceConfig& config : {MakeRtx2070Super(), MakeRtx3090(), MakeA100()}) {
    SCOPED_TRACE(config.name);
    Device dev(config);
    PointCloud cloud = RandomCloud(3000, 20, kChannels, 15);
    auto offsets = MakeWeightOffsets(3, 1);
    KernelMap map = MakeMap(dev, cloud, cloud.coords, offsets);
    GroupingPlan plan = PlanGemmGroups(map.EntryCounts(), GroupingStrategy::kSortedOrder);
    MetadataTables tables =
        BuildMetadataTables(dev, map, plan, cloud.num_points(), cloud.num_points(), nullptr);
    AutotuneOutcome gather = AutotuneGatherTile(dev, tables, kChannels);
    AutotuneOutcome scatter = AutotuneScatterTile(dev, tables, kChannels);
    ASSERT_EQ(gather.profile.size(), CandidateTileSizes(kChannels).size());
    ASSERT_EQ(scatter.profile.size(), CandidateTileSizes(kChannels).size());

    // The autotuner freed its operands, so allocating the same shapes in the
    // same order from the same arena state puts them at its addresses.
    auto probe = [](int tile) {
      TileKernelConfig cfg;
      cfg.tile_size = tile;
      cfg.functional = false;
      return cfg;
    };
    {
      FeatureMatrix features =
          FeatureMatrix::Uninitialized(tables.num_inputs, kChannels, dev.memory());
      FeatureMatrix buffer =
          FeatureMatrix::Uninitialized(tables.buffer_rows, kChannels, dev.memory());
      for (const auto& [tile, cycles] : gather.profile) {
        dev.l2().Flush();
        EXPECT_EQ(cycles, GatherKernel(dev, tables, features, buffer, probe(tile)).cycles)
            << "gather tile " << tile;
      }
    }
    FeatureMatrix buffer = FeatureMatrix::Uninitialized(tables.buffer_rows, kChannels,
                                                        dev.memory());
    FeatureMatrix output = FeatureMatrix::Uninitialized(tables.num_outputs, kChannels,
                                                        dev.memory());
    for (const auto& [tile, cycles] : scatter.profile) {
      dev.l2().Flush();
      EXPECT_EQ(cycles, ScatterKernel(dev, buffer, tables, output, probe(tile)).cycles)
          << "scatter tile " << tile;
    }
  }
}

TEST(CandidateTileSizesTest, DivisorsOnly) {
  EXPECT_EQ(CandidateTileSizes(1), (std::vector<int>{1}));
  EXPECT_EQ(CandidateTileSizes(12), (std::vector<int>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(CandidateTileSizes(16), (std::vector<int>{1, 2, 4, 8, 16}));
}

TEST(GmasTest, PaddingStatsFlowThroughResult) {
  Device dev(MakeRtx3090());
  const int64_t c = 4;
  PointCloud cloud = RandomCloud(600, 12, c, 15);
  auto offsets = MakeWeightOffsets(3, 1);
  auto weights = RandomWeights(offsets.size(), c, c, 16);
  KernelMap map = MakeMap(dev, cloud, cloud.coords, offsets);

  GmasConfig sorted_cfg;
  sorted_cfg.grouping = GroupingStrategy::kSortedOrder;
  GmasConfig map_cfg;
  map_cfg.grouping = GroupingStrategy::kMapOrder;

  const FeatureMatrix features(cloud.features, dev.memory());
  FeatureMatrix sorted_out(cloud.num_points(), c, 0.0f, dev.memory());
  GmasResult sorted_res =
      RunGatherGemmScatter(dev, map, features, weights, sorted_out, sorted_cfg);
  FeatureMatrix map_out(cloud.num_points(), c, 0.0f, dev.memory());
  GmasResult map_res = RunGatherGemmScatter(dev, map, features, weights, map_out, map_cfg);
  EXPECT_LE(sorted_res.stats.plan.PaddingOverhead(), map_res.stats.plan.PaddingOverhead());
  EXPECT_LE(sorted_res.stats.plan.NumKernels(), map_res.stats.plan.NumKernels());
  EXPECT_LT(MaxAbsDiff(sorted_out, map_out), 1e-4f);
}

TEST(GmasScratchTest, PrebuiltPlanAndTablesMatchAndSkipMetadataKernels) {
  Device dev(MakeRtx3090());
  const int64_t c_in = 8, c_out = 12;
  PointCloud cloud = RandomCloud(400, 10, c_in, 21);
  auto offsets = MakeWeightOffsets(3, 1);
  auto weights = RandomWeights(offsets.size(), c_in, c_out, 22);
  KernelMap map = MakeMap(dev, cloud, cloud.coords, offsets);
  const FeatureMatrix features(cloud.features, dev.memory());
  GmasConfig cfg;

  // Cold run records its plan + tables.
  GmasScratch cold;
  cold.record_tables = true;
  FeatureMatrix first_out(cloud.num_points(), c_out, 0.0f, dev.memory());
  GmasResult first = RunGatherGemmScatter(dev, map, features, weights, first_out, cfg, &cold);
  ASSERT_NE(first.tables, nullptr);
  EXPECT_GT(first.stats.metadata.num_launches, 0);

  // Warm run replays them: identical features, zero metadata kernels.
  GmasScratch warm;
  warm.plan = &first.stats.plan;
  warm.tables = first.tables.get();
  FeatureMatrix second_out(cloud.num_points(), c_out, 0.0f, dev.memory());
  GmasResult second = RunGatherGemmScatter(dev, map, features, weights, second_out, cfg, &warm);
  EXPECT_EQ(second.stats.metadata.num_launches, 0);
  EXPECT_EQ(second.tables, nullptr);  // nothing was built, nothing recorded
  ASSERT_EQ(first_out.rows(), second_out.rows());
  EXPECT_EQ(MaxAbsDiff(first_out, second_out), 0.0f);  // bit-identical
}

TEST(GmasScratchTest, PooledBuffersStopAllocatingAfterWarmup) {
  Device dev(MakeRtx3090());
  const int64_t c = 8;
  PointCloud cloud = RandomCloud(300, 9, c, 23);
  auto offsets = MakeWeightOffsets(3, 1);
  auto weights = RandomWeights(offsets.size(), c, c, 24);
  KernelMap map = MakeMap(dev, cloud, cloud.coords, offsets);
  const FeatureMatrix features(cloud.features, dev.memory());
  GmasConfig cfg;

  WorkspacePool pool(dev.memory());
  GmasScratch scratch;
  scratch.pool = &pool;
  FeatureMatrix expect = ReferenceSparseConv(cloud, cloud.coords, offsets, weights);
  for (int iter = 0; iter < 4; ++iter) {
    // The caller owns the output; a serving caller draws it from the same pool.
    FeatureMatrix out(cloud.num_points(), c,
                      pool.Acquire(static_cast<size_t>(cloud.num_points() * c), false));
    RunGatherGemmScatter(dev, map, features, weights, out, cfg, &scratch);
    EXPECT_LT(MaxAbsDiff(out, expect), 1e-4f) << "iter " << iter;
    pool.Release(out.TakeStorage());
    if (iter == 0) {
      pool.ResetStats();  // warm-up paid; steady state must not allocate
    }
  }
  EXPECT_EQ(pool.stats().allocations, 0u);
  EXPECT_GT(pool.stats().reuses, 0u);
  EXPECT_EQ(pool.stats().outstanding, 0);
}

}  // namespace
}  // namespace minuet
