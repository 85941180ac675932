// Determinism and round-trip tests for the streaming sequence generator: the
// JSON dump is structural only, yet replay re-materialises every frame —
// features included — bit-identically.
#include <algorithm>
#include <cstdlib>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/point_cloud.h"
#include "src/data/sequence.h"
#include "src/util/json_reader.h"

namespace minuet {
namespace {

SequenceConfig MakeConfig() {
  SequenceConfig config;
  config.base_points = 600;
  config.channels = 3;
  config.num_frames = 5;
  config.seed = 99;
  config.churn_rate = 0.08;
  config.max_step = 2;
  return config;
}

void ExpectSameCloud(const PointCloud& a, const PointCloud& b) {
  ASSERT_EQ(a.coords.size(), b.coords.size());
  for (size_t i = 0; i < a.coords.size(); ++i) {
    EXPECT_EQ(PackCoord(a.coords[i]), PackCoord(b.coords[i])) << "point " << i;
  }
  ASSERT_EQ(a.features.rows(), b.features.rows());
  ASSERT_EQ(a.features.cols(), b.features.cols());
  for (int64_t r = 0; r < a.features.rows(); ++r) {
    for (int64_t c = 0; c < a.features.cols(); ++c) {
      EXPECT_EQ(a.features.At(r, c), b.features.At(r, c)) << "row " << r << " col " << c;
    }
  }
}

TEST(SequenceTest, GenerationIsDeterministic) {
  Sequence a = GenerateSequence(MakeConfig());
  Sequence b = GenerateSequence(MakeConfig());
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (size_t f = 0; f < a.frames.size(); ++f) {
    ExpectSameCloud(a.frames[f].cloud, b.frames[f].cloud);
  }
}

TEST(SequenceTest, FramesKeepInvariants) {
  Sequence sequence = GenerateSequence(MakeConfig());
  ASSERT_EQ(sequence.frames.size(), 5u);
  for (const SequenceFrame& frame : sequence.frames) {
    // Constant frame size (inserts == deletes), key-sorted clouds and deltas.
    EXPECT_EQ(frame.cloud.num_points(), sequence.config.base_points);
    std::vector<uint64_t> keys = PackCoords(frame.cloud.coords);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_TRUE(std::adjacent_find(keys.begin(), keys.end()) == keys.end());
    std::vector<uint64_t> deleted = PackCoords(frame.deleted);
    std::vector<uint64_t> inserted = PackCoords(frame.inserted);
    EXPECT_TRUE(std::is_sorted(deleted.begin(), deleted.end()));
    EXPECT_TRUE(std::is_sorted(inserted.begin(), inserted.end()));
    EXPECT_EQ(deleted.size(), inserted.size());
    if (frame.frame == 0) {
      EXPECT_TRUE(frame.deleted.empty());
      EXPECT_TRUE(frame.inserted.empty());
      EXPECT_EQ(PackDelta(frame.motion), 0u);
    } else {
      // Inserted voxels are present in the frame; motion stays bounded.
      for (uint64_t key : inserted) {
        EXPECT_TRUE(std::binary_search(keys.begin(), keys.end(), key));
      }
      EXPECT_LE(std::abs(frame.motion.x), sequence.config.max_step);
      EXPECT_LE(std::abs(frame.motion.y), sequence.config.max_step);
      EXPECT_LE(std::abs(frame.motion.z), sequence.config.max_step);
    }
  }
}

// A motion bound of INT32_MAX draws steps that leave the lattice, so every
// frame's motion is zeroed; the range check itself must not overflow.
TEST(SequenceTest, MaxStepAtInt32MaxYieldsNoMotion) {
  SequenceConfig config = MakeConfig();
  config.max_step = std::numeric_limits<int32_t>::max();
  const Sequence sequence = GenerateSequence(config);
  for (const SequenceFrame& frame : sequence.frames) {
    EXPECT_EQ(frame.motion, Coord3{}) << "frame " << frame.frame;
  }
}

// Deltas actually derive each frame from its predecessor: prev keys rebiased
// by the motion, minus deleted, plus inserted == this frame's keys.
TEST(SequenceTest, DeltasReconstructEachFrame) {
  Sequence sequence = GenerateSequence(MakeConfig());
  for (size_t f = 1; f < sequence.frames.size(); ++f) {
    const SequenceFrame& frame = sequence.frames[f];
    std::vector<uint64_t> keys = PackCoords(sequence.frames[f - 1].cloud.coords);
    const uint64_t delta = PackDelta(frame.motion);
    for (uint64_t& key : keys) {
      key += delta;
    }
    std::vector<uint64_t> deleted = PackCoords(frame.deleted);
    std::vector<uint64_t> merged;
    std::set_difference(keys.begin(), keys.end(), deleted.begin(), deleted.end(),
                        std::back_inserter(merged));
    std::vector<uint64_t> inserted = PackCoords(frame.inserted);
    std::vector<uint64_t> result;
    std::merge(merged.begin(), merged.end(), inserted.begin(), inserted.end(),
               std::back_inserter(result));
    EXPECT_EQ(result, PackCoords(frame.cloud.coords)) << "frame " << f;
  }
}

TEST(SequenceTest, DumpIsByteIdenticalAndReplays) {
  Sequence sequence = GenerateSequence(MakeConfig());
  const std::string dump = SequenceTraceJson(sequence);
  EXPECT_EQ(dump, SequenceTraceJson(sequence));

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(dump, &doc, &error)) << error;
  Sequence replayed;
  ASSERT_TRUE(ParseSequenceTrace(doc, &replayed, &error)) << error;
  // Round trip: the replayed sequence re-dumps byte-identically...
  EXPECT_EQ(SequenceTraceJson(replayed), dump);
  // ...and re-materialises every cloud (features included) bit-identically.
  ASSERT_EQ(replayed.frames.size(), sequence.frames.size());
  for (size_t f = 0; f < sequence.frames.size(); ++f) {
    ExpectSameCloud(replayed.frames[f].cloud, sequence.frames[f].cloud);
  }
}

// The feature row of an inserted voxel is a pure function of
// (seed, birth frame, key) — the property the structural dump relies on.
TEST(SequenceTest, InsertedFeatureRowIsPure) {
  std::vector<float> a(4);
  std::vector<float> b(4);
  InsertedFeatureRow(7, 3, 123456789u, a);
  InsertedFeatureRow(7, 3, 123456789u, b);
  EXPECT_EQ(a, b);
  InsertedFeatureRow(7, 4, 123456789u, b);
  EXPECT_NE(a, b);
  InsertedFeatureRow(8, 3, 123456789u, b);
  EXPECT_NE(a, b);
}

// Feature rows travel with their voxel: a surviving voxel keeps its row
// across the motion from frame to frame.
TEST(SequenceTest, SurvivingVoxelsKeepTheirFeatures) {
  Sequence sequence = GenerateSequence(MakeConfig());
  for (size_t f = 1; f < sequence.frames.size(); ++f) {
    const SequenceFrame& prev = sequence.frames[f - 1];
    const SequenceFrame& cur = sequence.frames[f];
    std::vector<uint64_t> prev_keys = PackCoords(prev.cloud.coords);
    std::vector<uint64_t> cur_keys = PackCoords(cur.cloud.coords);
    std::vector<uint64_t> inserted = PackCoords(cur.inserted);
    const uint64_t delta = PackDelta(cur.motion);
    int64_t checked = 0;
    for (size_t i = 0; i < prev_keys.size() && checked < 50; ++i) {
      const uint64_t moved = prev_keys[i] + delta;
      auto it = std::lower_bound(cur_keys.begin(), cur_keys.end(), moved);
      if (it == cur_keys.end() || *it != moved ||
          std::binary_search(inserted.begin(), inserted.end(), moved)) {
        continue;  // deleted this frame (or the slot was re-inserted)
      }
      const int64_t j = it - cur_keys.begin();
      for (int64_t c = 0; c < prev.cloud.channels(); ++c) {
        ASSERT_EQ(prev.cloud.features.At(static_cast<int64_t>(i), c),
                  cur.cloud.features.At(j, c))
            << "frame " << f << " voxel " << i;
      }
      ++checked;
    }
    EXPECT_GT(checked, 0) << "frame " << f;
  }
}

}  // namespace
}  // namespace minuet
