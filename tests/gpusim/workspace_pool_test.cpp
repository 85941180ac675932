#include "src/gpusim/workspace_pool.h"

#include <gtest/gtest.h>

namespace minuet {
namespace {

TEST(WorkspacePoolTest, FirstAcquireAllocates) {
  WorkspacePool pool;
  auto slab = pool.Acquire(100, /*zero=*/false);
  EXPECT_EQ(slab.size(), 100u);
  EXPECT_EQ(slab.capacity(), 128u);  // rounded to the next power of two
  EXPECT_EQ(pool.stats().allocations, 1u);
  EXPECT_EQ(pool.stats().reuses, 0u);
  EXPECT_EQ(pool.stats().outstanding, 1);
  EXPECT_EQ(pool.stats().bytes_allocated, 128 * sizeof(float));
}

TEST(WorkspacePoolTest, ReleaseThenAcquireReuses) {
  WorkspacePool pool;
  auto slab = pool.Acquire(100, false);
  float* data = slab.data();
  pool.Release(std::move(slab));
  EXPECT_EQ(pool.stats().outstanding, 0);
  EXPECT_EQ(pool.cached_bytes(), 128 * sizeof(float));

  // Any request in the same size class reuses the cached slab.
  auto again = pool.Acquire(77, false);
  EXPECT_EQ(again.size(), 77u);
  EXPECT_EQ(again.data(), data);
  EXPECT_EQ(pool.stats().allocations, 1u);
  EXPECT_EQ(pool.stats().reuses, 1u);
}

TEST(WorkspacePoolTest, DifferentSizeClassesDoNotMix) {
  WorkspacePool pool;
  pool.Release(pool.Acquire(100, false));  // class 128
  auto big = pool.Acquire(1000, false);    // class 1024: fresh allocation
  EXPECT_EQ(pool.stats().allocations, 2u);
  EXPECT_EQ(pool.stats().reuses, 0u);
  pool.Release(std::move(big));
  // Both classes now populated: both of these reuse.
  auto a = pool.Acquire(128, false);
  auto b = pool.Acquire(513, false);
  EXPECT_EQ(pool.stats().reuses, 2u);
  EXPECT_EQ(pool.stats().allocations, 2u);
}

TEST(WorkspacePoolTest, ZeroFillOnReuse) {
  WorkspacePool pool;
  auto slab = pool.Acquire(64, false);
  std::fill(slab.begin(), slab.end(), 7.0f);
  pool.Release(std::move(slab));
  auto zeroed = pool.Acquire(64, /*zero=*/true);
  for (float v : zeroed) {
    EXPECT_EQ(v, 0.0f);
  }
}

TEST(WorkspacePoolTest, SteadyStateLoopStopsAllocating) {
  // The serving-path property: after one warm-up iteration, a loop that
  // acquires and releases the same shapes never touches the heap again.
  WorkspacePool pool;
  for (int iter = 0; iter < 10; ++iter) {
    auto a = pool.Acquire(4096, false);
    auto b = pool.Acquire(300, true);
    auto c = pool.Acquire(4000, false);  // same class as `a`, needs 2nd slab
    pool.Release(std::move(a));
    pool.Release(std::move(b));
    pool.Release(std::move(c));
  }
  EXPECT_EQ(pool.stats().allocations, 3u);
  EXPECT_EQ(pool.stats().reuses, 27u);
  EXPECT_EQ(pool.stats().outstanding, 0);
}

TEST(WorkspacePoolTest, HighWaterTracksPeakNotTotal) {
  WorkspacePool pool;
  auto a = pool.Acquire(1024, false);  // 4 KiB
  pool.Release(std::move(a));
  auto b = pool.Acquire(1024, false);  // reuse: no new bytes
  pool.Release(std::move(b));
  EXPECT_EQ(pool.stats().high_water_bytes, 1024 * sizeof(float));
  auto c = pool.Acquire(1024, false);
  auto d = pool.Acquire(1024, false);  // second concurrent slab: peak doubles
  EXPECT_EQ(pool.stats().high_water_bytes, 2 * 1024 * sizeof(float));
  pool.Release(std::move(c));
  pool.Release(std::move(d));
}

TEST(WorkspacePoolTest, ZeroCountAndEmptyReleaseAreNoOps) {
  WorkspacePool pool;
  auto empty = pool.Acquire(0, true);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(pool.stats().allocations, 0u);
  EXPECT_EQ(pool.stats().outstanding, 0);
  pool.Release(std::move(empty));
  pool.Release(DeviceVector<float>{});
  EXPECT_EQ(pool.stats().outstanding, 0);
}

TEST(WorkspacePoolTest, ResetStatsKeepsCachedSlabs) {
  WorkspacePool pool;
  pool.Release(pool.Acquire(64, false));
  pool.ResetStats();
  EXPECT_EQ(pool.stats().allocations, 0u);
  auto slab = pool.Acquire(64, false);
  EXPECT_EQ(pool.stats().reuses, 1u);  // the cached slab survived the reset
}

}  // namespace
}  // namespace minuet
