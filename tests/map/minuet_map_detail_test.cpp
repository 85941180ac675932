// Detail and property tests for Minuet's Map-step internals: segment
// monotonicity, comparison complexity, hyper-parameter invariance, and the
// stats contract.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/dense_reference.h"
#include "src/core/point_cloud.h"
#include "src/core/weight_offsets.h"
#include "src/gpusim/device_config.h"
#include "src/map/minuet_map.h"
#include "src/util/rng.h"

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
  // Work complexity (Section 5.1.3): O(K^3 |Q| log log |Q|). With B = 256 the
  // forward search does <= log2(B) = 8 comparisons per query; the backward
  // search adds K^3 * ceil(|P|/B) * log2(|Q|).
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

}  // namespace
}  // namespace minuet
