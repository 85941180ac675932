#include "src/core/feature_matrix.h"

#include <gtest/gtest.h>

#include "src/gpusim/workspace_pool.h"

namespace minuet {
namespace {

TEST(FeatureMatrixTest, AdoptStorageAvoidsAllocation) {
  DeviceVector<float> storage(64, 3.0f);
  float* data = storage.data();
  FeatureMatrix m(8, 8, std::move(storage));
  EXPECT_EQ(m.rows(), 8);
  EXPECT_EQ(m.cols(), 8);
  EXPECT_EQ(m.data(), data);
  EXPECT_EQ(m.At(7, 7), 3.0f);
}

TEST(FeatureMatrixTest, AdoptStorageResizesToShape) {
  // Oversized storage shrinks; undersized grows (value-initialized tail).
  FeatureMatrix shrunk(2, 3, DeviceVector<float>(100, 1.0f));
  EXPECT_EQ(shrunk.rows(), 2);
  EXPECT_EQ(shrunk.At(1, 2), 1.0f);
  FeatureMatrix grown(4, 4, DeviceVector<float>{});
  EXPECT_EQ(grown.At(3, 3), 0.0f);
}

TEST(FeatureMatrixTest, TakeStorageEmptiesMatrix) {
  FeatureMatrix m(4, 4, 2.0f);
  DeviceVector<float> storage = m.TakeStorage();
  EXPECT_EQ(storage.size(), 16u);
  EXPECT_EQ(storage[15], 2.0f);
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
}

TEST(FeatureMatrixTest, PoolRoundTrip) {
  // The serving-path pattern: acquire a slab, wrap it, use it, recycle it.
  WorkspacePool pool;
  FeatureMatrix a(16, 8, pool.Acquire(16 * 8, /*zero=*/true));
  a.At(15, 7) = 5.0f;
  pool.Release(a.TakeStorage());
  FeatureMatrix b(10, 12, pool.Acquire(10 * 12, /*zero=*/true));
  EXPECT_EQ(pool.stats().allocations, 1u);
  EXPECT_EQ(pool.stats().reuses, 1u);
  EXPECT_EQ(b.At(9, 11), 0.0f);  // zero-filled despite slab reuse
}

TEST(FeatureMatrixTest, ZeroRowMatrixIsValid) {
  FeatureMatrix m(0, 4);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 4);
}

}  // namespace
}  // namespace minuet
