// Detail and property tests for Minuet's Map-step internals: segment
// monotonicity, comparison complexity, hyper-parameter invariance, and the
// stats contract.
#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/dense_reference.h"
#include "src/core/point_cloud.h"
#include "src/core/weight_offsets.h"
#include "src/gpusim/device_config.h"
#include "src/map/minuet_map.h"
#include "src/util/rng.h"
#include "tests/gpusim/device_peer.h"

namespace minuet {
namespace {

std::vector<uint64_t> RandomSortedKeys(int target, int span, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<uint64_t> keys;
  for (int i = 0; i < target; ++i) {
    keys.push_back(PackCoord(
        Coord3{rng.NextInt(-span, span), rng.NextInt(-span, span), rng.NextInt(-span, span)}));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

TEST(MinuetMapDetailTest, QuerySegmentsAreSortedForEveryOffset) {
  auto keys = RandomSortedKeys(2000, 50, 1);
  for (const Coord3& d : MakeWeightOffsets(3, 1)) {
    uint64_t delta = PackDelta(d);
    for (size_t i = 1; i < keys.size(); ++i) {
      ASSERT_LT(keys[i - 1] + delta, keys[i] + delta);
    }
  }
}

TEST(MinuetMapDetailTest, ComparisonCountIsNearLogLog) {
  // Work complexity (Section 5.1.3): O(K^3 |Q| log log |Q|). With B = 256 a
  // forward query takes at most floor(log2 B) + 1 = 9 comparisons, and 9 for
  // only 2 of the B + 1 answers a full block can give (checked below), so the
  // bound charges 8 per query; the backward search adds
  // K^3 * ceil(|P|/B) * log2(|Q|).
  int nine_step_answers = 0;
  for (int64_t r = 0; r <= 256; ++r) {
    EXPECT_GE(LowerBoundSteps(256, r), 8);
    EXPECT_LE(LowerBoundSteps(256, r), 9);
    nine_step_answers += LowerBoundSteps(256, r) == 9 ? 1 : 0;
  }
  EXPECT_EQ(nine_step_answers, 2);
  Device dev(MakeRtx3090());
  auto keys = ToDevice(dev.memory(), RandomSortedKeys(50000, 120, 2));
  auto offsets = MakeWeightOffsets(3, 1);
  MapBuildInput in;
  in.source_keys = keys;
  in.output_keys = keys;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;
  MinuetMapBuilder builder;
  MapBuildResult result = builder.Build(dev, in);

  const double n = static_cast<double>(keys.size());
  const double k3 = static_cast<double>(offsets.size());
  double forward_bound = k3 * n * 8.0;
  double backward_bound = k3 * std::ceil(n / 256.0) * (std::log2(n) + 1.0);
  EXPECT_LE(result.comparisons, static_cast<uint64_t>(forward_bound + backward_bound));
  EXPECT_GT(result.comparisons, static_cast<uint64_t>(k3 * n));  // at least one per query
}

TEST(MinuetMapDetailTest, LowerBoundStepsCountTheLiteralLoop) {
  // Keys 1, 3, 5, ...: the query 2r has its lower bound at r, and so does the
  // query 2r + 1 (a hit) when r < n. The loop below is the one the forward
  // kernel charges; LowerBoundSteps must count its iterations exactly.
  const int64_t block_b = MinuetMapConfig{}.source_block_size;
  for (int64_t n = 1; n <= 2 * block_b; ++n) {
    std::vector<uint64_t> keys(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      keys[static_cast<size_t>(i)] = static_cast<uint64_t>(2 * i + 1);
    }
    for (int64_t r = 0; r <= n; ++r) {
      for (uint64_t query : {static_cast<uint64_t>(2 * r), static_cast<uint64_t>(2 * r + 1)}) {
        if (query > 2 * static_cast<uint64_t>(n)) {
          continue;
        }
        int steps = 0;
        int64_t lo = 0;
        int64_t hi = n;
        while (lo < hi) {
          int64_t mid = lo + (hi - lo) / 2;
          ++steps;
          if (keys[static_cast<size_t>(mid)] < query) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        ASSERT_EQ(lo, r);
        ASSERT_EQ(LowerBoundSteps(n, r), steps) << "n=" << n << " r=" << r;
      }
    }
  }
}

// What the Map query charges, from literal per-query binary searches: the
// backward search per (offset, source block), then each query's search over
// the source block its backward bound assigns it, with a staged block per
// query block of at most C queries. Inputs are sorted, so positions are
// source indices.
struct LiteralMapQuery {
  std::vector<uint32_t> positions;
  uint64_t comparisons = 0;
  uint64_t forward_shared_bytes = 0;
};

LiteralMapQuery LiteralSearch(const std::vector<uint64_t>& src, const std::vector<uint64_t>& out,
                              const std::vector<Coord3>& offsets, const MinuetMapConfig& cfg) {
  const int64_t n_src = static_cast<int64_t>(src.size());
  const int64_t n_out = static_cast<int64_t>(out.size());
  const int64_t block_b = cfg.source_block_size;
  const int64_t block_c = cfg.query_block_size;
  const int64_t num_blocks = (n_src + block_b - 1) / block_b;
  LiteralMapQuery lit;
  lit.positions.assign(offsets.size() * out.size(), kNoMatch);
  for (size_t k = 0; k < offsets.size(); ++k) {
    auto query = [&](int64_t i, bool* valid) {
      return ClampedQueryKey(out[static_cast<size_t>(i)], offsets[k], valid);
    };
    int64_t first = 0;
    for (int64_t s = 0; s < num_blocks; ++s) {
      const int64_t sb = s * block_b;
      const int64_t se = std::min(sb + block_b, n_src);
      // Backward: the first query above the block's last key.
      const uint64_t pivot = src[static_cast<size_t>(se - 1)];
      int64_t lo = 0;
      int64_t hi = n_out;
      while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        ++lit.comparisons;
        bool valid = true;
        if (query(mid, &valid) > pivot) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      const int64_t bound = lo;
      // Forward: queries [first, bound) against [sb, se).
      const int64_t query_blocks = (bound - first + block_c - 1) / block_c;
      lit.forward_shared_bytes +=
          static_cast<uint64_t>(query_blocks * (se - sb)) * sizeof(uint64_t);
      for (int64_t i = first; i < bound; ++i) {
        bool valid = true;
        const uint64_t q = query(i, &valid);
        lo = sb;
        hi = se;
        while (lo < hi) {
          int64_t mid = lo + (hi - lo) / 2;
          ++lit.comparisons;
          lit.forward_shared_bytes += sizeof(uint64_t);
          if (src[static_cast<size_t>(mid)] < q) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        if (valid && lo < se && src[static_cast<size_t>(lo)] == q) {
          lit.positions[k * out.size() + static_cast<size_t>(i)] = static_cast<uint32_t>(lo);
        }
      }
      first = bound;
    }
  }
  return lit;
}

void ExpectChargesMatchLiteralSearch(const std::vector<uint64_t>& src,
                                     const std::vector<uint64_t>& out,
                                     const std::vector<Coord3>& offsets,
                                     const MinuetMapConfig& cfg) {
  Device dev(MakeRtx3090());
  const DeviceVector<uint64_t> src_keys = ToDevice(dev.memory(), src);
  const DeviceVector<uint64_t> out_keys = ToDevice(dev.memory(), out);
  MapBuildInput in;
  in.source_keys = src_keys;
  in.output_keys = out_keys;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;
  MinuetMapBuilder builder(cfg);
  const MapBuildResult result = builder.Build(dev, in);
  const LiteralMapQuery lit = LiteralSearch(src, out, offsets, cfg);
  EXPECT_TRUE(std::vector<uint32_t>(result.table.positions.begin(),
                                    result.table.positions.end()) == lit.positions);
  EXPECT_EQ(result.comparisons, lit.comparisons);
  EXPECT_EQ(result.lookup_stats.shared_bytes, lit.forward_shared_bytes);
  EXPECT_GT(lit.forward_shared_bytes, 0u);
}

MinuetMapConfig SmallBlocks() {
  MinuetMapConfig cfg;
  cfg.source_block_size = 16;
  cfg.query_block_size = 8;
  return cfg;
}

TEST(MinuetMapDetailTest, ForwardChargesMatchLiteralSearchInLattice) {
  const auto keys = RandomSortedKeys(3000, 20, 11);
  const auto offsets = MakeWeightOffsets(3, 1);
  ASSERT_TRUE(QueriesStayInLattice(keys, offsets));
  ExpectChargesMatchLiteralSearch(keys, keys, offsets, MinuetMapConfig{});
  ExpectChargesMatchLiteralSearch(keys, keys, offsets, SmallBlocks());
}

TEST(MinuetMapDetailTest, ForwardChargesMatchLiteralSearchForClampedQueries) {
  // Keys on the lattice's faces: many queries clamp at kCoordMin/kCoordMax.
  const std::vector<int32_t> edges = {kCoordMin, kCoordMin + 1, -1, 0, 1, kCoordMax - 1,
                                      kCoordMax};
  std::vector<uint64_t> keys;
  for (int32_t x : edges) {
    for (int32_t y : edges) {
      for (int32_t z : edges) {
        keys.push_back(PackCoord(Coord3{x, y, z}));
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  const auto offsets = MakeWeightOffsets(3, 1);
  ASSERT_FALSE(QueriesStayInLattice(keys, offsets));
  ExpectChargesMatchLiteralSearch(keys, keys, offsets, MinuetMapConfig{});
  ExpectChargesMatchLiteralSearch(keys, keys, offsets, SmallBlocks());
}

TEST(MinuetMapDetailTest, ForwardChargesMatchLiteralSearchWithTailBlock) {
  auto keys = RandomSortedKeys(3000, 20, 12);
  keys.resize(16 * 100 + 5);
  ASSERT_NE(keys.size() % 16, 0u);
  ASSERT_NE(keys.size() % 256, 0u);
  const auto offsets = MakeWeightOffsets(3, 1);
  ExpectChargesMatchLiteralSearch(keys, keys, offsets, SmallBlocks());
  ExpectChargesMatchLiteralSearch(keys, keys, offsets, MinuetMapConfig{});
}

TEST(MinuetMapDetailTest, ForwardChargesMatchLiteralSearchWhenUpsampling) {
  // Fine outputs against coarse sources: n_out >> n_src, so most source
  // blocks serve many query blocks.
  const auto fine = RandomSortedKeys(6000, 8, 13);
  std::vector<Coord3> fine_coords;
  for (uint64_t k : fine) {
    fine_coords.push_back(UnpackCoord(k));
  }
  const auto coarse = PackCoords(DownsampleCoords(fine_coords, 4));
  ASSERT_GE(fine.size(), 8 * coarse.size());
  const auto offsets = MakeWeightOffsets(3, 1);
  ExpectChargesMatchLiteralSearch(coarse, fine, offsets, MinuetMapConfig{});
  ExpectChargesMatchLiteralSearch(coarse, fine, offsets, SmallBlocks());
}

TEST(MinuetMapDetailTest, ForwardChargesMatchLiteralSearchWhenDownsampling) {
  // The stride-2 downsampling map: K = 2 offsets from coarse outputs into a
  // finer source.
  const auto keys = RandomSortedKeys(2500, 20, 14);
  std::vector<Coord3> coords;
  for (uint64_t k : keys) {
    coords.push_back(UnpackCoord(k));
  }
  const auto outs = PackCoords(DownsampleCoords(coords, 2));
  ASSERT_LT(outs.size(), keys.size());
  const auto offsets = MakeWeightOffsets(2, 1);
  ExpectChargesMatchLiteralSearch(keys, outs, offsets, MinuetMapConfig{});
  ExpectChargesMatchLiteralSearch(keys, outs, offsets, SmallBlocks());
}

TEST(MinuetMapDetailTest, ResultIndependentOfHyperparameters) {
  Device dev(MakeRtx3090());
  auto keys = ToDevice(dev.memory(), RandomSortedKeys(3000, 25, 3));
  auto offsets = MakeWeightOffsets(3, 1);
  MapBuildInput in;
  in.source_keys = keys;
  in.output_keys = keys;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;

  MinuetMapBuilder reference_builder;
  auto reference = reference_builder.Build(dev, in).table.positions;
  Pcg32 rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    MinuetMapConfig cfg;
    cfg.source_block_size = 2 + rng.NextBounded(1000);
    cfg.query_block_size = 1 + rng.NextBounded(1500);
    MinuetMapBuilder builder(cfg);
    EXPECT_EQ(builder.Build(dev, in).table.positions, reference)
        << "B=" << cfg.source_block_size << " C=" << cfg.query_block_size;
  }
}

TEST(MinuetMapDetailTest, DisjointSourceAndOutputLattices) {
  // Strided layers query a coarser lattice against a finer source; no match
  // can exist outside the sub-lattice relation.
  Device dev(MakeRtx3090());
  auto keys = ToDevice(dev.memory(), RandomSortedKeys(2000, 30, 5));
  std::vector<Coord3> outs;
  for (uint64_t k : keys) {
    Coord3 c = UnpackCoord(k);
    outs.push_back(Coord3{FloorDiv(c.x, 4) * 4, FloorDiv(c.y, 4) * 4, FloorDiv(c.z, 4) * 4});
  }
  std::sort(outs.begin(), outs.end());
  outs.erase(std::unique(outs.begin(), outs.end()), outs.end());
  auto out_keys = ToDevice(dev.memory(), PackCoords(outs));
  auto offsets = MakeWeightOffsets(3, 2);

  MapBuildInput in;
  in.source_keys = keys;
  in.output_keys = out_keys;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;
  MinuetMapBuilder builder;
  MapBuildResult result = builder.Build(dev, in);

  std::vector<Coord3> in_coords;
  for (uint64_t k : keys) {
    in_coords.push_back(UnpackCoord(k));
  }
  EXPECT_EQ(result.table.positions, ReferenceMapPositions(in_coords, outs, offsets).positions);
}

TEST(MinuetMapDetailTest, LookupStatsAreSubsetOfQueryStats) {
  Device dev(MakeRtx3090());
  auto keys = ToDevice(dev.memory(), RandomSortedKeys(10000, 60, 6));
  auto offsets = MakeWeightOffsets(3, 1);
  MapBuildInput in;
  in.source_keys = keys;
  in.output_keys = keys;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;
  MinuetMapBuilder builder;
  MapBuildResult result = builder.Build(dev, in);
  EXPECT_LE(result.lookup_stats.cycles, result.query_stats.cycles);
  EXPECT_LE(result.lookup_stats.num_launches, result.query_stats.num_launches);
  EXPECT_EQ(result.build_stats.num_launches, 0);  // both inputs pre-sorted
}

TEST(MinuetMapDetailTest, SingleSourceKeyAndSingleQuery) {
  Device dev(MakeRtx3090());
  const DeviceVector<uint64_t> src(1, PackCoord(Coord3{1, 2, 3}), dev.memory());
  const DeviceVector<uint64_t> out(1, PackCoord(Coord3{0, 2, 3}), dev.memory());
  std::vector<Coord3> offsets = {{1, 0, 0}, {0, 0, 0}, {-1, 0, 0}};
  MapBuildInput in;
  in.source_keys = src;
  in.output_keys = out;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;
  MinuetMapBuilder builder;
  MapBuildResult result = builder.Build(dev, in);
  EXPECT_EQ(result.table.At(0, 0), 0u);  // (0,2,3) + (1,0,0) == (1,2,3)
  EXPECT_EQ(result.table.At(1, 0), kNoMatch);
  EXPECT_EQ(result.table.At(2, 0), kNoMatch);
}

TEST(MinuetMapDetailTest, KernelSize2StrideOffsets) {
  // The K=2 downsampling conv: offsets {0, t}^3 with sources on a finer
  // lattice than outputs.
  Device dev(MakeRtx3090());
  auto keys = ToDevice(dev.memory(), RandomSortedKeys(1500, 20, 7));
  std::vector<Coord3> in_coords;
  for (uint64_t k : keys) {
    in_coords.push_back(UnpackCoord(k));
  }
  auto outs = DownsampleCoords(in_coords, 2);
  auto offsets = MakeWeightOffsets(2, 1);
  MapBuildInput in;
  in.source_keys = keys;
  auto out_keys = ToDevice(dev.memory(), PackCoords(outs));
  in.output_keys = out_keys;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;
  MinuetMapBuilder builder;
  MapBuildResult result = builder.Build(dev, in);
  EXPECT_EQ(result.table.positions, ReferenceMapPositions(in_coords, outs, offsets).positions);
  // Every input coordinate is reachable from its own downsampled output:
  // each output must have at least one match.
  for (int64_t i = 0; i < result.table.num_outputs; ++i) {
    bool any = false;
    for (int64_t k = 0; k < result.table.num_offsets; ++k) {
      any = any || result.table.At(k, i) != kNoMatch;
    }
    EXPECT_TRUE(any) << "output " << i << " matched nothing";
  }
}

class MinuetMapDensitySweep : public ::testing::TestWithParam<int> {};

TEST_P(MinuetMapDensitySweep, MatchesReferenceAcrossDensities) {
  Device dev(MakeRtx3090());
  int span = GetParam();
  auto keys =
      ToDevice(dev.memory(), RandomSortedKeys(1200, span, 100 + static_cast<uint64_t>(span)));
  std::vector<Coord3> coords;
  for (uint64_t k : keys) {
    coords.push_back(UnpackCoord(k));
  }
  auto offsets = MakeWeightOffsets(3, 1);
  MapBuildInput in;
  in.source_keys = keys;
  in.output_keys = keys;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;
  MinuetMapBuilder builder;
  EXPECT_EQ(builder.Build(dev, in).table.positions,
            ReferenceMapPositions(coords, coords, offsets).positions);
}

INSTANTIATE_TEST_SUITE_P(Densities, MinuetMapDensitySweep,
                         ::testing::Values(5, 8, 15, 40, 120, 500));

TEST(ParallelLaunchTest, ForwardSearchMatchesSerialInEveryMode) {
  // The forward search declares independent blocks; its comparison count is
  // a per-block reduction. Positions, comparisons, stats and the device's
  // state must be a one-worker run's in every launch mode, with a builder
  // that clamps queries (unsorted outputs) and one that trusts them.
  const std::vector<uint64_t> source = RandomSortedKeys(6000, 40, 11);
  std::vector<uint64_t> output = RandomSortedKeys(5000, 40, 12);
  for (bool sorted_outputs : {true, false}) {
    SCOPED_TRACE(sorted_outputs ? "sorted outputs" : "unsorted outputs");
    if (!sorted_outputs) {
      std::reverse(output.begin(), output.end());
    }
    auto build = [&](Device& dev) {
      auto source_keys = ToDevice(dev.memory(), source);
      auto output_keys = ToDevice(dev.memory(), output);
      const std::vector<Coord3> offsets = MakeWeightOffsets(3, 1);
      MapBuildInput in;
      in.source_keys = source_keys;
      in.output_keys = output_keys;
      in.offsets = offsets;
      in.source_sorted = true;
      in.output_sorted = sorted_outputs;
      MapBuildResult result = MinuetMapBuilder().Build(dev, in);
      std::vector<uint32_t> positions(result.table.positions.begin(),
                                      result.table.positions.end());
      return std::make_pair(std::move(result), std::move(positions));
    };
    Device serial(MakeRtx3090());
    MakeOneWorker(serial);
    const auto [want, want_positions] = build(serial);
    ASSERT_GT(want.lookup_stats.num_blocks, 64);
    for (const LaunchMode& mode : ParallelLaunchModes()) {
      SCOPED_TRACE(mode.name);
      Device dev(MakeRtx3090());
      ApplyLaunchMode(dev, mode);
      const auto [got, got_positions] = build(dev);
      EXPECT_EQ(got.comparisons, want.comparisons);
      EXPECT_EQ(got_positions, want_positions);
      ExpectSameKernelStats(got.lookup_stats, want.lookup_stats);
      ExpectSameKernelStats(got.query_stats, want.query_stats);
      ExpectSameDeviceState(dev, serial);
    }
  }
}

}  // namespace
}  // namespace minuet
