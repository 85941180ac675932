// Tests for the sorted-key chain's rebuild rule, and equivalence and cost
// tests for the incremental map builder: the delta path
// must produce a MapBuildResult bit-identical to a from-scratch build over
// the same frame, at every churn rate, and must be meaningfully cheaper at
// streaming churn levels.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/point_cloud.h"
#include "src/core/weight_offsets.h"
#include "src/data/sequence.h"
#include "src/gpusim/device_config.h"
#include "src/map/incremental.h"
#include "src/map/minuet_map.h"

namespace minuet {
namespace {

SequenceConfig MakeConfig(double churn, int64_t points = 2000, int64_t frames = 6) {
  SequenceConfig config;
  config.base_points = points;
  config.num_frames = frames;
  config.seed = 23;
  config.churn_rate = churn;
  config.max_step = 2;
  return config;
}

// From-scratch reference over the frame's sorted keys on a fresh device; the
// table is copied back to the host so it outlives the device.
MapBuildResult ReferenceBuild(const std::vector<uint64_t>& keys,
                              const std::vector<Coord3>& offsets) {
  Device device(MakeRtx3090());
  const DeviceVector<uint64_t> device_keys = ToDevice(device.memory(), keys);
  MinuetMapBuilder builder;
  MapBuildResult result =
      builder.Build(device, MapBuildInput{device_keys, device_keys, offsets,
                                          /*source_sorted=*/true, /*output_sorted=*/true});
  result.table.positions = ToDevice(nullptr, result.table.positions);
  return result;
}

void ExpectSameMap(const MapBuildResult& got, const MapBuildResult& want) {
  ASSERT_EQ(got.table.num_offsets, want.table.num_offsets);
  ASSERT_EQ(got.table.num_outputs, want.table.num_outputs);
  EXPECT_EQ(got.table.positions, want.table.positions);
  EXPECT_EQ(got.comparisons, want.comparisons);
}

// The sorted keys of row y = `y` of the lattice, x in [begin, end).
std::vector<uint64_t> Row(int y, int begin, int end) {
  std::vector<Coord3> coords;
  for (int x = begin; x < end; ++x) {
    coords.push_back(Coord3{x, y, 0});
  }
  std::vector<uint64_t> keys = PackCoords(coords);
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<uint64_t> SortedUnion(std::vector<uint64_t> a, const std::vector<uint64_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  return a;
}

// The rebuild rule, pinned once: no chain rebuilds, churn exactly
// kRebuildChurn takes the delta path, and churn just above it rebuilds.
TEST(SortedKeyChainTest, RebuildRuleBoundary) {
  Device device(MakeRtx3090());
  SortedKeyChain chain;
  const std::vector<uint64_t> first = Row(0, 0, 1000);
  ChainStep step = chain.Advance(device, 0, {}, {}, first);
  EXPECT_FALSE(step.incremental);
  EXPECT_DOUBLE_EQ(step.churn, 1.0);
  EXPECT_TRUE(chain.chained());

  // 500 of 1000 keys replaced: churn 0.5.
  const std::vector<uint64_t> second = SortedUnion(Row(0, 500, 1000), Row(1, 0, 500));
  step = chain.Advance(device, 0, Row(0, 0, 500), Row(1, 0, 500), second);
  EXPECT_DOUBLE_EQ(step.churn, kRebuildChurn);
  EXPECT_TRUE(step.incremental);
  EXPECT_GT(step.delta_stats.num_launches, 0);
  EXPECT_TRUE(std::ranges::equal(chain.keys(), second));

  // 501 of 1000: churn 0.501.
  const std::vector<uint64_t> third = SortedUnion(Row(1, 1, 500), Row(2, 0, 501));
  step = chain.Advance(device, 0, SortedUnion(Row(0, 500, 1000), Row(1, 0, 1)), Row(2, 0, 501),
                       third);
  EXPECT_GT(step.churn, kRebuildChurn);
  EXPECT_FALSE(step.incremental);
  EXPECT_EQ(step.delta_stats.num_launches, 0);
  EXPECT_TRUE(std::ranges::equal(chain.keys(), third));

  EXPECT_EQ(chain.frames_incremental(), 1);
  EXPECT_EQ(chain.frames_rebuilt(), 2);
}

class IncrementalChurnTest : public ::testing::TestWithParam<double> {};

// At every churn rate the delta path's map (and its retained key array) is
// bit-identical to the from-scratch build of the same frame.
TEST_P(IncrementalChurnTest, MapsMatchFromScratchEveryFrame) {
  const double churn = GetParam();
  Sequence sequence = GenerateSequence(MakeConfig(churn));
  const std::vector<Coord3> offsets = MakeWeightOffsets(3, 1);
  Device device(MakeRtx3090());
  IncrementalMapBuilder builder;
  for (const SequenceFrame& frame : sequence.frames) {
    const std::vector<uint64_t> keys = PackCoords(frame.cloud.coords);
    IncrementalBuildResult result =
        frame.frame == 0
            ? builder.BuildFull(device, keys, offsets)
            : builder.BuildDelta(device, PackDelta(frame.motion), PackCoords(frame.deleted),
                                 PackCoords(frame.inserted), keys, offsets);
    EXPECT_TRUE(std::ranges::equal(builder.chain().keys(), keys)) << "frame " << frame.frame;
    ExpectSameMap(result.map, ReferenceBuild(keys, offsets));
  }
}

INSTANTIATE_TEST_SUITE_P(Churn, IncrementalChurnTest,
                         ::testing::Values(0.0, 0.05, 0.50, 1.0));

// Churn above kRebuildChurn falls back to the full path (and still matches).
TEST(IncrementalMapTest, ThresholdFallback) {
  Sequence sequence = GenerateSequence(MakeConfig(0.80, /*points=*/1000));
  const std::vector<Coord3> offsets = MakeWeightOffsets(3, 1);
  Device device(MakeRtx3090());
  IncrementalMapBuilder builder;
  for (const SequenceFrame& frame : sequence.frames) {
    const std::vector<uint64_t> keys = PackCoords(frame.cloud.coords);
    IncrementalBuildResult result =
        frame.frame == 0
            ? builder.BuildFull(device, keys, offsets)
            : builder.BuildDelta(device, PackDelta(frame.motion), PackCoords(frame.deleted),
                                 PackCoords(frame.inserted), keys, offsets);
    EXPECT_FALSE(result.incremental);
    if (frame.frame > 0) {
      EXPECT_GT(result.churn, kRebuildChurn);
    }
    ExpectSameMap(result.map, ReferenceBuild(keys, offsets));
  }
  EXPECT_EQ(builder.chain().frames_incremental(), 0);
  EXPECT_EQ(builder.chain().frames_rebuilt(), static_cast<int64_t>(sequence.frames.size()));
}

// Full turnover (every voxel deleted, a disjoint set inserted) is churn 1.0:
// the delta path is abandoned for a rebuild and the result still matches.
TEST(IncrementalMapTest, FullTurnoverRebuilds) {
  const std::vector<Coord3> offsets = MakeWeightOffsets(3, 1);
  std::vector<uint64_t> first;
  std::vector<uint64_t> second;
  for (int i = 0; i < 100; ++i) {
    first.push_back(PackCoord(Coord3{i, 0, 0}));
    second.push_back(PackCoord(Coord3{i, 7, 0}));
  }
  std::sort(first.begin(), first.end());
  std::sort(second.begin(), second.end());
  Device device(MakeRtx3090());
  IncrementalMapBuilder builder;
  builder.BuildFull(device, first, offsets);
  IncrementalBuildResult result =
      builder.BuildDelta(device, /*motion_delta=*/0, first, second, second, offsets);
  EXPECT_FALSE(result.incremental);
  EXPECT_DOUBLE_EQ(result.churn, 1.0);
  EXPECT_TRUE(std::ranges::equal(builder.chain().keys(), second));
  ExpectSameMap(result.map, ReferenceBuild(second, offsets));
}

// A frame with no churn and no motion is a pure no-op delta.
TEST(IncrementalMapTest, EmptyDeltaFrame) {
  const std::vector<Coord3> offsets = MakeWeightOffsets(3, 1);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(PackCoord(Coord3{i, i % 5, -i % 3}));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  Device device(MakeRtx3090());
  IncrementalMapBuilder builder;
  builder.BuildFull(device, keys, offsets);
  IncrementalBuildResult result = builder.BuildDelta(device, 0, {}, {}, keys, offsets);
  EXPECT_TRUE(result.incremental);
  EXPECT_DOUBLE_EQ(result.churn, 0.0);
  EXPECT_DOUBLE_EQ(result.delta_stats.cycles, 0.0);  // no rebias, no merge
  ExpectSameMap(result.map, ReferenceBuild(keys, offsets));
}

// An empty previous frame has no state to advance: churn is defined as 1.0
// and the builder rebuilds.
TEST(IncrementalMapTest, EmptyPreviousFrameRebuilds) {
  const std::vector<Coord3> offsets = MakeWeightOffsets(3, 1);
  Device device(MakeRtx3090());
  IncrementalMapBuilder builder;
  builder.BuildFull(device, {}, offsets);
  std::vector<uint64_t> keys = {PackCoord(Coord3{1, 2, 3}), PackCoord(Coord3{4, 5, 6})};
  std::sort(keys.begin(), keys.end());
  IncrementalBuildResult result = builder.BuildDelta(device, 0, {}, keys, keys, offsets);
  EXPECT_FALSE(result.incremental);
  EXPECT_TRUE(std::ranges::equal(builder.chain().keys(), keys));
}

// Reset drops the retained array; the next delta takes the full path.
TEST(IncrementalMapTest, ResetForcesRebuild) {
  Sequence sequence = GenerateSequence(MakeConfig(0.05, /*points=*/500, /*frames=*/3));
  const std::vector<Coord3> offsets = MakeWeightOffsets(3, 1);
  Device device(MakeRtx3090());
  IncrementalMapBuilder builder;
  builder.BuildFull(device, PackCoords(sequence.frames[0].cloud.coords), offsets);
  builder.Reset();
  EXPECT_FALSE(builder.chain().chained());
  const SequenceFrame& frame = sequence.frames[1];
  const std::vector<uint64_t> keys = PackCoords(frame.cloud.coords);
  IncrementalBuildResult result =
      builder.BuildDelta(device, PackDelta(frame.motion), PackCoords(frame.deleted),
                         PackCoords(frame.inserted), keys, offsets);
  EXPECT_FALSE(result.incremental);
  EXPECT_TRUE(std::ranges::equal(builder.chain().keys(), keys));
}

// The acceptance line of the streaming PR: at 5% churn the per-frame
// maintenance cost of the delta path is at least 2x below the full sort.
TEST(IncrementalMapTest, DeltaPathAtLeastTwiceCheaperAtLowChurn) {
  Sequence sequence = GenerateSequence(MakeConfig(0.05, /*points=*/20000, /*frames=*/6));
  const std::vector<Coord3> offsets = MakeWeightOffsets(3, 1);
  Device full_device(MakeRtx3090());
  Device incr_device(MakeRtx3090());
  IncrementalMapBuilder full_builder;
  IncrementalMapBuilder incr_builder;
  double full_cycles = 0.0;
  double incr_cycles = 0.0;
  for (const SequenceFrame& frame : sequence.frames) {
    const std::vector<uint64_t> keys = PackCoords(frame.cloud.coords);
    full_cycles += full_builder.BuildFull(full_device, keys, offsets).delta_stats.cycles;
    if (frame.frame == 0) {
      incr_builder.BuildFull(incr_device, keys, offsets);
    } else {
      incr_cycles += incr_builder
                         .BuildDelta(incr_device, PackDelta(frame.motion),
                                     PackCoords(frame.deleted), PackCoords(frame.inserted),
                                     keys, offsets)
                         .delta_stats.cycles;
    }
  }
  const double frames = static_cast<double>(sequence.frames.size());
  const double full_per_frame = full_cycles / frames;
  const double incr_per_frame = incr_cycles / (frames - 1.0);
  EXPECT_GE(full_per_frame, 2.0 * incr_per_frame)
      << "full " << full_per_frame << " vs incremental " << incr_per_frame;
  EXPECT_EQ(incr_builder.chain().frames_incremental(), static_cast<int64_t>(sequence.frames.size()) - 1);
}

}  // namespace
}  // namespace minuet
