#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/dense_reference.h"
#include "src/core/point_cloud.h"
#include "src/core/weight_offsets.h"
#include "src/gpusim/device_config.h"
#include "src/map/binary_baselines.h"
#include "src/map/hash_map.h"
#include "src/map/minuet_map.h"
#include "src/util/rng.h"

namespace minuet {
namespace {

std::vector<Coord3> RandomUniqueCoords(int target, int span, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<uint64_t> keys;
  for (int i = 0; i < target; ++i) {
    keys.push_back(PackCoord(
        Coord3{rng.NextInt(-span, span), rng.NextInt(-span, span), rng.NextInt(-span, span)}));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<Coord3> coords;
  coords.reserve(keys.size());
  for (uint64_t k : keys) {
    coords.push_back(UnpackCoord(k));
  }
  return coords;
}

struct BuilderCase {
  std::string label;
  std::function<std::unique_ptr<MapBuilderBase>()> make;
};

std::vector<BuilderCase> AllBuilders() {
  return {
      {"Minuet", [] { return std::make_unique<MinuetMapBuilder>(); }},
      {"MinuetNoDtbs",
       [] {
         MinuetMapConfig cfg;
         cfg.double_traversal = false;
         return std::make_unique<MinuetMapBuilder>(cfg);
       }},
      {"MinuetTinyBlocks",
       [] {
         MinuetMapConfig cfg;
         cfg.source_block_size = 4;
         cfg.query_block_size = 3;
         return std::make_unique<MinuetMapBuilder>(cfg);
       }},
      {"HashLinear", [] { return std::make_unique<HashMapBuilder>(HashTableKind::kLinearProbe); }},
      {"HashCuckoo", [] { return std::make_unique<HashMapBuilder>(HashTableKind::kCuckoo); }},
      {"HashSpatial", [] { return std::make_unique<HashMapBuilder>(HashTableKind::kSpatial); }},
      {"NaiveBinary", [] { return std::make_unique<NaiveBinaryMapBuilder>(); }},
      {"FullSort", [] { return std::make_unique<FullSortMapBuilder>(); }},
      {"MergePath", [] { return std::make_unique<MergePathMapBuilder>(); }},
      {"MergePathTinyBlocks", [] { return std::make_unique<MergePathMapBuilder>(3); }},
  };
}

class MapBuilderSuite : public ::testing::TestWithParam<size_t> {};

TEST_P(MapBuilderSuite, MatchesReferenceStride1) {
  auto builder = AllBuilders()[GetParam()].make();
  Device dev(MakeRtx3090());
  auto coords = RandomUniqueCoords(800, 12, 1);  // dense-ish: many matches
  auto offsets = MakeWeightOffsets(3, 1);
  auto keys = ToDevice(dev.memory(), PackCoords(coords));

  MapBuildInput in;
  in.source_keys = keys;
  in.output_keys = keys;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;
  MapBuildResult got = builder->Build(dev, in);

  MapPositionTable expect = ReferenceMapPositions(coords, coords, offsets);
  ASSERT_EQ(got.table.positions.size(), expect.positions.size());
  EXPECT_EQ(got.table.positions, expect.positions) << AllBuilders()[GetParam()].label;
}

TEST_P(MapBuilderSuite, MatchesReferenceStrided) {
  auto builder = AllBuilders()[GetParam()].make();
  Device dev(MakeRtx3090());
  auto in_coords = RandomUniqueCoords(600, 20, 2);
  auto out_coords = DownsampleCoords(in_coords, 2);
  auto offsets = MakeWeightOffsets(2, 1);  // K=2 downsampling conv
  auto src_keys = ToDevice(dev.memory(), PackCoords(in_coords));
  auto out_keys = ToDevice(dev.memory(), PackCoords(out_coords));

  MapBuildInput in;
  in.source_keys = src_keys;
  in.output_keys = out_keys;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;
  MapBuildResult got = builder->Build(dev, in);

  MapPositionTable expect = ReferenceMapPositions(in_coords, out_coords, offsets);
  EXPECT_EQ(got.table.positions, expect.positions);
}

TEST_P(MapBuilderSuite, MatchesReferenceWithUnsortedInputs) {
  auto builder = AllBuilders()[GetParam()].make();
  Device dev(MakeRtx3090());
  auto coords = RandomUniqueCoords(500, 15, 3);
  // Shuffle deterministically so the builders must sort (or not care).
  Pcg32 rng(99);
  std::vector<Coord3> shuffled = coords;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBounded(static_cast<uint32_t>(i))]);
  }
  auto offsets = MakeWeightOffsets(3, 1);
  auto keys = ToDevice(dev.memory(), PackCoords(shuffled));

  MapBuildInput in;
  in.source_keys = keys;
  in.output_keys = keys;
  in.offsets = offsets;
  in.source_sorted = false;
  in.output_sorted = false;
  MapBuildResult got = builder->Build(dev, in);

  MapPositionTable expect = ReferenceMapPositions(shuffled, shuffled, offsets);
  EXPECT_EQ(got.table.positions, expect.positions);
}

TEST_P(MapBuilderSuite, SparseCloudFewMatches) {
  auto builder = AllBuilders()[GetParam()].make();
  Device dev(MakeRtx3090());
  auto coords = RandomUniqueCoords(300, 400, 4);  // very sparse: mostly misses
  auto offsets = MakeWeightOffsets(3, 1);
  auto keys = ToDevice(dev.memory(), PackCoords(coords));

  MapBuildInput in;
  in.source_keys = keys;
  in.output_keys = keys;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;
  MapBuildResult got = builder->Build(dev, in);
  EXPECT_EQ(got.table.positions, ReferenceMapPositions(coords, coords, offsets).positions);
}

TEST_P(MapBuilderSuite, EmptyInputsProduceEmptyTable) {
  auto builder = AllBuilders()[GetParam()].make();
  Device dev(MakeRtx3090());
  auto offsets = MakeWeightOffsets(3, 1);
  MapBuildInput in;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;
  MapBuildResult got = builder->Build(dev, in);
  EXPECT_EQ(got.table.num_outputs, 0);
  EXPECT_TRUE(got.table.positions.empty());
}

TEST_P(MapBuilderSuite, LargerKernelSize5) {
  auto builder = AllBuilders()[GetParam()].make();
  Device dev(MakeRtx3090());
  auto coords = RandomUniqueCoords(300, 10, 5);
  auto offsets = MakeWeightOffsets(5, 1);
  auto keys = ToDevice(dev.memory(), PackCoords(coords));
  MapBuildInput in;
  in.source_keys = keys;
  in.output_keys = keys;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;
  MapBuildResult got = builder->Build(dev, in);
  EXPECT_EQ(got.table.positions, ReferenceMapPositions(coords, coords, offsets).positions);
}

TEST_P(MapBuilderSuite, TensorStride2Offsets) {
  auto builder = AllBuilders()[GetParam()].make();
  Device dev(MakeRtx3090());
  // Coordinates on a stride-2 lattice with stride-2 offsets.
  auto base = RandomUniqueCoords(400, 15, 6);
  std::vector<Coord3> coords;
  for (const Coord3& c : base) {
    coords.push_back(Coord3{c.x * 2, c.y * 2, c.z * 2});
  }
  auto offsets = MakeWeightOffsets(3, 2);
  auto keys = ToDevice(dev.memory(), PackCoords(coords));
  MapBuildInput in;
  in.source_keys = keys;
  in.output_keys = keys;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;
  MapBuildResult got = builder->Build(dev, in);
  EXPECT_EQ(got.table.positions, ReferenceMapPositions(coords, coords, offsets).positions);
}

TEST_P(MapBuilderSuite, BoundaryCloudMatchesReference) {
  auto builder = AllBuilders()[GetParam()].make();
  Device dev(MakeRtx3090());
  // Clusters hugging the corners and faces of the packable box: many K=3
  // queries step outside the lattice, and several raw delta adds would wrap
  // across key fields onto coordinates that really exist in the cloud (e.g.
  // (-1, kCoordMax, z) + (0, 1, 0) wraps to (0, kCoordMin, z)). Builders must
  // report misses for those, exactly like the dense reference.
  std::vector<int32_t> edges = {kCoordMin, kCoordMin + 1, -1, 0, kCoordMax - 1, kCoordMax};
  std::vector<uint64_t> keys;
  for (int32_t x : edges) {
    for (int32_t y : edges) {
      for (int32_t z : edges) {
        keys.push_back(PackCoord(Coord3{x, y, z}));
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  std::vector<Coord3> coords;
  coords.reserve(keys.size());
  for (uint64_t k : keys) {
    coords.push_back(UnpackCoord(k));
  }
  auto offsets = MakeWeightOffsets(3, 1);
  const DeviceVector<uint64_t> device_keys = ToDevice(dev.memory(), keys);

  MapBuildInput in;
  in.source_keys = device_keys;
  in.output_keys = device_keys;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;
  MapBuildResult got = builder->Build(dev, in);
  EXPECT_EQ(got.table.positions, ReferenceMapPositions(coords, coords, offsets).positions);
}

INSTANTIATE_TEST_SUITE_P(AllBuilders, MapBuilderSuite,
                         ::testing::Range<size_t>(0, AllBuilders().size()),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return AllBuilders()[info.param].label;
                         });

TEST(MinuetMapTest, StatsSeparateBuildFromQuery) {
  Device dev(MakeRtx3090());
  MinuetMapBuilder builder;
  auto coords = RandomUniqueCoords(3000, 40, 7);
  auto keys = ToDevice(dev.memory(), PackCoords(coords));
  auto offsets = MakeWeightOffsets(3, 1);

  MapBuildInput unsorted;
  unsorted.source_keys = keys;
  unsorted.output_keys = keys;
  unsorted.offsets = offsets;
  MapBuildResult with_sort = builder.Build(dev, unsorted);
  EXPECT_GT(with_sort.build_stats.num_launches, 0);

  MapBuildInput sorted = unsorted;
  sorted.source_sorted = true;
  sorted.output_sorted = true;
  MapBuildResult without_sort = builder.Build(dev, sorted);
  EXPECT_EQ(without_sort.build_stats.num_launches, 0);
  EXPECT_EQ(with_sort.table.positions, without_sort.table.positions);
}

TEST(MinuetMapTest, DoubleTraversalReducesComparisons) {
  Device dev(MakeRtx3090());
  auto coords = RandomUniqueCoords(20000, 60, 8);
  auto keys = ToDevice(dev.memory(), PackCoords(coords));
  auto offsets = MakeWeightOffsets(3, 1);
  MapBuildInput in;
  in.source_keys = keys;
  in.output_keys = keys;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;

  MinuetMapBuilder dtbs;
  MinuetMapConfig no_cfg;
  no_cfg.double_traversal = false;
  MinuetMapBuilder no_dtbs(no_cfg);
  MapBuildResult a = dtbs.Build(dev, in);
  MapBuildResult b = no_dtbs.Build(dev, in);
  EXPECT_EQ(a.table.positions, b.table.positions);
  // Forward search ranges shrink from log(|P|) ~ 14.3 to log(B) = 8 per
  // query, plus the (small) backward-search cost.
  EXPECT_LT(a.comparisons, static_cast<uint64_t>(0.7 * static_cast<double>(b.comparisons)));
}

TEST(MinuetMapTest, LookupHitRatioBeatsHashAtScale) {
  // The headline contrast of Figures 3/16b, at test scale: the source array
  // streams through L2 block-by-block while the hash table probes randomly.
  auto coords = RandomUniqueCoords(150000, 300, 9);
  auto keys = PackCoords(coords);
  auto offsets = MakeWeightOffsets(3, 1);
  auto input_on = [&](const DeviceVector<uint64_t>& device_keys) {
    MapBuildInput in;
    in.source_keys = device_keys;
    in.output_keys = device_keys;
    in.offsets = offsets;
    in.source_sorted = true;
    in.output_sorted = true;
    return in;
  };

  // Shrink L2 so the working set exceeds it even at test sizes.
  DeviceConfig cfg = MakeRtx3090();
  cfg.l2_bytes = 512 << 10;

  Device dev_minuet(cfg);
  const DeviceVector<uint64_t> minuet_keys = ToDevice(dev_minuet.memory(), keys);
  MinuetMapBuilder minuet_builder;
  MapBuildResult minuet_result = minuet_builder.Build(dev_minuet, input_on(minuet_keys));

  Device dev_hash(cfg);
  const DeviceVector<uint64_t> hash_keys = ToDevice(dev_hash.memory(), keys);
  HashMapBuilder hash_builder(HashTableKind::kCuckoo);
  MapBuildResult hash_result = hash_builder.Build(dev_hash, input_on(hash_keys));

  EXPECT_EQ(minuet_result.table.positions, hash_result.table.positions);
  EXPECT_GT(minuet_result.lookup_stats.L2HitRatio(), 0.90);
  EXPECT_LT(hash_result.lookup_stats.L2HitRatio(), 0.60);
}

TEST(MinuetMapTest, BlockSizeExtremesStayCorrect) {
  Device dev(MakeRtx3090());
  auto coords = RandomUniqueCoords(1000, 18, 10);
  auto keys = ToDevice(dev.memory(), PackCoords(coords));
  auto offsets = MakeWeightOffsets(3, 1);
  MapBuildInput in;
  in.source_keys = keys;
  in.output_keys = keys;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;
  auto expect = ReferenceMapPositions(coords, coords, offsets).positions;

  for (int64_t b : {2, 7, 64, 4096}) {
    for (int64_t c : {1, 5, 512, 100000}) {
      MinuetMapConfig cfg;
      cfg.source_block_size = b;
      cfg.query_block_size = c;
      MinuetMapBuilder builder(cfg);
      MapBuildResult got = builder.Build(dev, in);
      EXPECT_EQ(got.table.positions, expect) << "B=" << b << " C=" << c;
    }
  }
}

TEST(NaiveBinaryTest, OrderedVariantAlsoCorrect) {
  Device dev(MakeRtx3090());
  NaiveBinaryMapBuilder builder(/*shuffle_queries=*/false);
  auto coords = RandomUniqueCoords(500, 15, 11);
  auto keys = ToDevice(dev.memory(), PackCoords(coords));
  auto offsets = MakeWeightOffsets(3, 1);
  MapBuildInput in;
  in.source_keys = keys;
  in.output_keys = keys;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;
  MapBuildResult got = builder.Build(dev, in);
  EXPECT_EQ(got.table.positions, ReferenceMapPositions(coords, coords, offsets).positions);
}

}  // namespace
}  // namespace minuet
