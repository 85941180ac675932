// The serving path: PlanCache LRU semantics, RunSession bit-identity with the
// stateless Run(), warm-run Map/metadata elision, and steady-state
// zero-allocation inference from the session's workspace pool.
#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/engine/plan_cache.h"
#include "src/gpusim/device_config.h"
#include "src/util/rng.h"

namespace minuet {
namespace {

PointCloud SmallCloud(int target, int span, int64_t channels, uint64_t seed) {
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

EngineConfig ConfigFor(EngineKind kind) {
  EngineConfig config;
  config.kind = kind;
  return config;
}

// --- PlanCache unit behaviour -----------------------------------------------

PlanKey KeyOf(uint64_t coord_fp) {
  PlanKey key;
  key.coord_fingerprint = coord_fp;
  key.config_fingerprint = 7;
  key.device = "test";
  return key;
}

TEST(PlanCacheTest, InsertThenLookupHits) {
  PlanCache cache(4);
  EXPECT_EQ(cache.Lookup(KeyOf(1)), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  cache.Insert(KeyOf(1), std::make_shared<ExecutionPlan>());
  ASSERT_NE(cache.Lookup(KeyOf(1)), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, LruEvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  cache.Insert(KeyOf(1), std::make_shared<ExecutionPlan>());
  cache.Insert(KeyOf(2), std::make_shared<ExecutionPlan>());
  ASSERT_NE(cache.Lookup(KeyOf(1)), nullptr);  // 1 becomes most recent
  cache.Insert(KeyOf(3), std::make_shared<ExecutionPlan>());

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_NE(cache.Lookup(KeyOf(1)), nullptr);  // survived (recently used)
  EXPECT_EQ(cache.Lookup(KeyOf(2)), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(KeyOf(3)), nullptr);
}

TEST(PlanCacheTest, FingerprintIsOrderSensitive) {
  std::vector<Coord3> a = {{0, 0, 0}, {1, 2, 3}, {-4, 5, -6}};
  std::vector<Coord3> b = {{1, 2, 3}, {0, 0, 0}, {-4, 5, -6}};
  std::vector<Coord3> c = {{0, 0, 0}, {1, 2, 3}};
  EXPECT_EQ(FingerprintCoords(a), FingerprintCoords(a));
  EXPECT_NE(FingerprintCoords(a), FingerprintCoords(b));
  EXPECT_NE(FingerprintCoords(a), FingerprintCoords(c));
}

// --- RunSession across all three engines ------------------------------------

class RunSessionSuite : public ::testing::TestWithParam<EngineKind> {};

TEST_P(RunSessionSuite, WarmRunsAreBitIdenticalToStatelessRun) {
  Engine engine(ConfigFor(GetParam()), MakeRtx3090());
  engine.Prepare(MakeTinyUNet(4), 11);
  PointCloud cloud = SmallCloud(300, 10, 4, 3);

  RunResult baseline = engine.Run(cloud);

  RunSession session(engine);
  RunResult cold = session.Run(cloud);
  RunResult warm = session.Run(cloud);
  EXPECT_EQ(session.stats().cold_runs, 1u);
  EXPECT_EQ(session.stats().warm_runs, 1u);

  ASSERT_EQ(cold.features.rows(), baseline.features.rows());
  ASSERT_EQ(warm.features.rows(), baseline.features.rows());
  EXPECT_EQ(MaxAbsDiff(cold.features, baseline.features), 0.0f);
  EXPECT_EQ(MaxAbsDiff(warm.features, baseline.features), 0.0f);
  EXPECT_EQ(cold.coords, baseline.coords);
  EXPECT_EQ(warm.coords, baseline.coords);
}

TEST_P(RunSessionSuite, WarmRunSkipsMapWork) {
  Engine engine(ConfigFor(GetParam()), MakeRtx3090());
  engine.Prepare(MakeTinyUNet(4), 11);
  PointCloud cloud = SmallCloud(300, 10, 4, 3);

  RunSession session(engine);
  RunResult cold = session.Run(cloud);
  RunResult warm = session.Run(cloud);

  // The whole Map step is replayed from the plan: queries and compaction are
  // gone, and map_build keeps at most the per-run feature permutation.
  EXPECT_GT(cold.total.map_query, 0.0);
  EXPECT_EQ(warm.total.map_query, 0.0);
  EXPECT_LT(warm.total.map_build, cold.total.map_build);
  EXPECT_LT(warm.total.launches, cold.total.launches);
  EXPECT_LT(warm.total.TotalCycles(), cold.total.TotalCycles());
}

TEST_P(RunSessionSuite, SteadyStateRunsAllocateNothing) {
  Engine engine(ConfigFor(GetParam()), MakeRtx3090());
  engine.Prepare(MakeTinyUNet(4), 11);
  PointCloud cloud = SmallCloud(300, 10, 4, 3);

  RunSession session(engine);
  session.Run(cloud);  // cold: records the plan, warms the pool
  session.Run(cloud);  // warm: reaches the steady-state slab population
  session.workspace_pool().ResetStats();

  RunResult warm = session.Run(cloud);
  const WorkspacePool::Stats& stats = session.workspace_pool().stats();
  EXPECT_EQ(stats.allocations, 0u) << "steady-state run hit the heap";
  EXPECT_GT(stats.reuses, 0u);
  EXPECT_EQ(stats.outstanding, 0u) << "a slab leaked out of the run";
  EXPECT_GT(warm.features.rows(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, RunSessionSuite,
                         ::testing::Values(EngineKind::kMinuet, EngineKind::kTorchSparse,
                                           EngineKind::kMinkowski),
                         [](const auto& info) { return EngineKindName(info.param); });

// --- Session-level cache behaviour ------------------------------------------

TEST(RunSessionTest, StatsSnapshotTracksCacheAndPool) {
  Engine engine(ConfigFor(EngineKind::kMinuet), MakeRtx3090());
  engine.Prepare(MakeTinyUNet(4), 11);
  PointCloud a = SmallCloud(200, 9, 4, 1);
  PointCloud b = SmallCloud(200, 9, 4, 2);

  RunSession session(engine);
  session.Run(a);  // cold: plan miss
  session.Run(a);  // warm: plan hit
  session.Run(b);  // cold again for a new coordinate set
  session.Run(a);  // warm: a's plan is still cached

  SessionStats stats = session.stats();
  EXPECT_EQ(stats.cold_runs, 2u);
  EXPECT_EQ(stats.warm_runs, 2u);
  EXPECT_EQ(stats.plan.misses, 2u);
  EXPECT_EQ(stats.plan.hits, 2u);
  EXPECT_EQ(stats.plan.evictions, 0u);
  // The snapshot mirrors the live cache and pool counters.
  EXPECT_EQ(stats.plan.hits, session.plan_cache().stats().hits);
  EXPECT_EQ(stats.pool.allocations, session.workspace_pool().stats().allocations);
  EXPECT_GT(stats.pool.reuses, 0u);
  EXPECT_EQ(stats.pool.outstanding, 0);
}

TEST(RunSessionTest, StatsCountEvictions) {
  Engine engine(ConfigFor(EngineKind::kMinuet), MakeRtx3090());
  engine.Prepare(MakeTinyUNet(4), 11);
  PointCloud a = SmallCloud(150, 8, 4, 1);
  PointCloud b = SmallCloud(150, 8, 4, 2);

  RunSession session(engine, /*plan_capacity=*/1);
  session.Run(a);
  session.Run(b);  // evicts a's plan
  session.Run(a);  // miss again, evicts b's plan
  SessionStats stats = session.stats();
  EXPECT_EQ(stats.cold_runs, 3u);
  EXPECT_EQ(stats.plan.misses, 3u);
  EXPECT_EQ(stats.plan.evictions, 2u);
}

TEST(RunSessionTest, ClassificationHeadMatchesStatelessRun) {
  // Pooling instrs, global average pool, and the linear head all flow through
  // the cached plan too.
  Engine engine({}, MakeRtx3090());
  engine.Prepare(MakeSparseResNet21(4, 10), 5);
  PointCloud cloud = SmallCloud(400, 12, 4, 9);

  RunResult baseline = engine.Run(cloud);
  RunSession session(engine);
  RunResult cold = session.Run(cloud);
  RunResult warm = session.Run(cloud);

  ASSERT_EQ(baseline.features.rows(), 1);
  EXPECT_EQ(MaxAbsDiff(cold.features, baseline.features), 0.0f);
  EXPECT_EQ(MaxAbsDiff(warm.features, baseline.features), 0.0f);
}

TEST(RunSessionTest, DistinctCloudsGetDistinctPlans) {
  Engine engine({}, MakeRtx3090());
  engine.Prepare(MakeTinyUNet(4), 11);
  PointCloud a = SmallCloud(200, 9, 4, 1);
  PointCloud b = SmallCloud(200, 9, 4, 2);

  RunSession session(engine);
  session.Run(a);
  session.Run(b);
  session.Run(a);
  EXPECT_EQ(session.stats().cold_runs, 2u);
  EXPECT_EQ(session.stats().warm_runs, 1u);
  EXPECT_EQ(session.plan_cache().size(), 2u);
}

TEST(RunSessionTest, PrepareInvalidatesCachedPlans) {
  Engine engine({}, MakeRtx3090());
  engine.Prepare(MakeTinyUNet(4), 11);
  PointCloud cloud = SmallCloud(200, 9, 4, 1);

  RunSession session(engine);
  session.Run(cloud);
  engine.Prepare(MakeTinyUNet(4), 12);  // new weights: old plan must not replay
  RunResult rerun = session.Run(cloud);
  EXPECT_EQ(session.stats().cold_runs, 2u);
  EXPECT_EQ(session.stats().warm_runs, 0u);

  RunResult baseline = engine.Run(cloud);
  EXPECT_EQ(MaxAbsDiff(rerun.features, baseline.features), 0.0f);
}

TEST(RunSessionTest, CapacityOneCacheStillServesAlternatingClouds) {
  Engine engine({}, MakeRtx3090());
  engine.Prepare(MakeTinyUNet(4), 11);
  PointCloud a = SmallCloud(150, 8, 4, 1);
  PointCloud b = SmallCloud(150, 8, 4, 2);

  RunSession session(engine, /*plan_capacity=*/1);
  RunResult a1 = session.Run(a);
  session.Run(b);                  // evicts a's plan
  RunResult a2 = session.Run(a);   // cold again, still correct
  EXPECT_EQ(session.stats().cold_runs, 3u);
  EXPECT_GE(session.plan_cache().stats().evictions, 2u);
  EXPECT_EQ(MaxAbsDiff(a1.features, a2.features), 0.0f);
}

}  // namespace
}  // namespace minuet
