// Unit tests for the tiled Gather/Scatter kernels against hand-built
// metadata, plus accounting properties (tile trade-off, coverage).
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/dense_reference.h"
#include "src/core/weight_offsets.h"
#include "src/gmas/gather_scatter.h"
#include "src/gmas/metadata.h"
#include "src/gpusim/device_config.h"
#include "src/util/rng.h"

namespace minuet {
namespace {

// Builds a tiny metadata table by hand in `dev`'s memory: 3 inputs, 2
// outputs, 2 offsets.
MetadataTables HandTables(Device& dev) {
  MetadataTables t;
  t.num_offsets = 2;
  t.num_inputs = 3;
  t.num_outputs = 2;
  t.buffer_rows = 3;
  t.imt = DeviceVector<uint32_t>(static_cast<size_t>(t.num_offsets * t.num_inputs), kNoMatch,
                                 dev.memory());
  t.omt = DeviceVector<uint32_t>(static_cast<size_t>(t.num_offsets * t.num_outputs), kNoMatch,
                                 dev.memory());
  // offset 0: input 0 -> slot 0 (output 0); input 2 -> slot 1 (output 1)
  t.imt[0 * 3 + 0] = 0;
  t.imt[0 * 3 + 2] = 1;
  t.omt[0 * 2 + 0] = 0;
  t.omt[0 * 2 + 1] = 1;
  // offset 1: input 1 -> slot 2 (output 0)
  t.imt[1 * 3 + 1] = 2;
  t.omt[1 * 2 + 0] = 2;
  return t;
}

TEST(GatherScatterUnitTest, GatherPlacesRowsAtSlots) {
  Device dev(MakeRtx3090());
  MetadataTables tables = HandTables(dev);
  FeatureMatrix features(3, 4, 0.0f, dev.memory());
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      features.At(i, j) = static_cast<float>(10 * i + j);
    }
  }
  FeatureMatrix buffer(3, 4, -1.0f, dev.memory());
  TileKernelConfig cfg;
  cfg.tile_size = 2;
  GatherKernel(dev, tables, features, buffer, cfg);
  // slot 0 = input 0; slot 1 = input 2; slot 2 = input 1.
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_EQ(buffer.At(0, j), features.At(0, j));
    EXPECT_EQ(buffer.At(1, j), features.At(2, j));
    EXPECT_EQ(buffer.At(2, j), features.At(1, j));
  }
}

TEST(GatherScatterUnitTest, ScatterSumsPartials) {
  Device dev(MakeRtx3090());
  MetadataTables tables = HandTables(dev);
  FeatureMatrix buffer(3, 4, 0.0f, dev.memory());
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t j = 0; j < 4; ++j) {
      buffer.At(r, j) = static_cast<float>(100 * r + j);
    }
  }
  FeatureMatrix output(2, 4, 99.0f, dev.memory());  // overwritten, not accumulated
  TileKernelConfig cfg;
  cfg.tile_size = 4;
  ScatterKernel(dev, buffer, tables, output, cfg);
  // output 0 = slot 0 + slot 2; output 1 = slot 1.
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_EQ(output.At(0, j), buffer.At(0, j) + buffer.At(2, j));
    EXPECT_EQ(output.At(1, j), buffer.At(1, j));
  }
}

TEST(GatherScatterUnitTest, OutputsWithNoPartialsBecomeZero) {
  Device dev(MakeRtx3090());
  MetadataTables t = HandTables(dev);
  // Remove output 1's only slot.
  t.omt[0 * 2 + 1] = kNoMatch;
  FeatureMatrix buffer(3, 2, 5.0f, dev.memory());
  FeatureMatrix output(2, 2, 77.0f, dev.memory());
  TileKernelConfig cfg;
  cfg.tile_size = 1;
  ScatterKernel(dev, buffer, t, output, cfg);
  EXPECT_EQ(output.At(1, 0), 0.0f);
  EXPECT_EQ(output.At(1, 1), 0.0f);
}

TEST(GatherScatterUnitTest, GatherResultIndependentOfTileSize) {
  Device dev(MakeRtx3090());
  Pcg32 rng(1);
  MetadataTables tables = HandTables(dev);
  FeatureMatrix features(3, 12, 0.0f, dev.memory());
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 12; ++j) {
      features.At(i, j) = static_cast<float>(rng.NextGaussian());
    }
  }
  FeatureMatrix reference(3, 12, 0.0f, dev.memory());
  {
    TileKernelConfig cfg;
    cfg.tile_size = 12;
    GatherKernel(dev, tables, features, reference, cfg);
  }
  for (int tile : {1, 2, 3, 4, 6}) {
    FeatureMatrix buffer(3, 12, 0.0f, dev.memory());
    TileKernelConfig cfg;
    cfg.tile_size = tile;
    GatherKernel(dev, tables, features, buffer, cfg);
    EXPECT_EQ(MaxAbsDiff(buffer, reference), 0.0f) << "tile " << tile;
  }
}

TEST(GatherScatterUnitTest, ClearBufferChargesAMemsetAndLeavesHostData) {
  // The launch writes rows x cols x element_bytes device bytes, whatever the
  // buffer holds, and leaves every host value as it was.
  for (int element_bytes : {4, 2}) {
    SCOPED_TRACE(element_bytes);
    Device dirty_dev(MakeRtx3090());
    FeatureMatrix dirty(100, 7, std::numeric_limits<float>::quiet_NaN(), dirty_dev.memory());
    const KernelStats dirty_stats = ClearBuffer(dirty_dev, dirty, element_bytes);
    Device dev(MakeRtx3090());
    FeatureMatrix buffer(100, 7, 3.0f, dev.memory());
    const KernelStats stats = ClearBuffer(dev, buffer, element_bytes);
    for (int64_t i = 0; i < buffer.rows(); ++i) {
      for (int64_t j = 0; j < buffer.cols(); ++j) {
        ASSERT_EQ(buffer.At(i, j), 3.0f);
        ASSERT_TRUE(std::isnan(dirty.At(i, j)));
      }
    }
    EXPECT_EQ(stats.global_bytes_written, 100u * 7u * static_cast<unsigned>(element_bytes));
    EXPECT_EQ(stats.name, "gmas/buffer/memset");
    EXPECT_EQ(stats.num_launches, 1);
    EXPECT_EQ(stats.cycles, dirty_stats.cycles);
    EXPECT_EQ(stats.global_bytes_written, dirty_stats.global_bytes_written);
    EXPECT_EQ(stats.l2_hits, dirty_stats.l2_hits);
    EXPECT_EQ(stats.l2_misses, dirty_stats.l2_misses);
  }
}

TEST(GatherScatterUnitTest, TileSizeMustDivideChannels) {
  Device dev(MakeRtx3090());
  MetadataTables tables = HandTables(dev);
  FeatureMatrix features(3, 4, 0.0f, dev.memory());
  FeatureMatrix buffer(3, 4, 0.0f, dev.memory());
  TileKernelConfig cfg;
  cfg.tile_size = 3;  // does not divide 4
  EXPECT_DEATH(GatherKernel(dev, tables, features, buffer, cfg), "tile size");
}

TEST(GatherScatterAccountingTest, SmallerTilesIssueMoreLaneOps) {
  // Algorithm 1's indexing-cost side of the trade-off: halving the tile size
  // doubles the metadata issue work.
  Pcg32 rng(2);
  Device dev(MakeRtx3090());
  MetadataTables tables;
  const int64_t n = 4000;
  tables.num_offsets = 27;
  tables.num_inputs = n;
  tables.num_outputs = n;
  tables.buffer_rows = n;
  tables.imt = DeviceVector<uint32_t>(static_cast<size_t>(27 * n), kNoMatch, dev.memory());
  tables.omt = DeviceVector<uint32_t>(static_cast<size_t>(27 * n), kNoMatch, dev.memory());
  for (int64_t i = 0; i < n; ++i) {
    tables.imt[static_cast<size_t>(rng.NextBounded(27)) * n + static_cast<size_t>(i)] =
        static_cast<uint32_t>(i);
  }
  FeatureMatrix features(n, 64, 0.0f, dev.memory());
  FeatureMatrix buffer(n, 64, 0.0f, dev.memory());
  TileKernelConfig small_cfg;
  small_cfg.tile_size = 1;
  small_cfg.functional = false;
  TileKernelConfig large_cfg = small_cfg;
  large_cfg.tile_size = 64;

  KernelStats small = GatherKernel(dev, tables, features, buffer, small_cfg);
  KernelStats large = GatherKernel(dev, tables, features, buffer, large_cfg);
  EXPECT_GT(small.lane_ops, large.lane_ops * 16);
  EXPECT_GT(small.num_blocks, large.num_blocks * 16);
}

TEST(GatherScatterAccountingTest, TimingOnlyDoesNotTouchData) {
  Device dev(MakeRtx3090());
  MetadataTables tables = HandTables(dev);
  FeatureMatrix features(3, 4, 1.0f, dev.memory());
  FeatureMatrix buffer(3, 4, -2.0f, dev.memory());
  TileKernelConfig cfg;
  cfg.tile_size = 4;
  cfg.functional = false;
  GatherKernel(dev, tables, features, buffer, cfg);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_EQ(buffer.At(i, j), -2.0f);
    }
  }
}

}  // namespace
}  // namespace minuet
