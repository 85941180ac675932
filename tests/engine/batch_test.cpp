// Batched inference: RunBatch fuses clouds into one run and must reproduce
// each cloud's solo result exactly.
#include <gtest/gtest.h>

#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"

namespace minuet {
namespace {

PointCloud MakeCloud(int64_t n, uint64_t seed, DatasetKind kind = DatasetKind::kS3dis) {
  GeneratorConfig gen;
  gen.target_points = n;
  gen.channels = 4;
  gen.seed = seed;
  return GenerateCloud(kind, gen);
}

class BatchSuite : public ::testing::TestWithParam<EngineKind> {};

TEST_P(BatchSuite, BatchEqualsSoloRuns) {
  Network net = MakeTinyUNet(4);
  EngineConfig config;
  config.kind = GetParam();
  Engine engine(config, MakeRtx3090());
  engine.Prepare(net, 5);

  std::vector<PointCloud> batch;
  batch.push_back(MakeCloud(1500, 1));
  batch.push_back(MakeCloud(800, 2, DatasetKind::kKitti));
  batch.push_back(MakeCloud(2200, 3, DatasetKind::kShapenet));

  std::vector<RunResult> batched = engine.RunBatch(batch);
  ASSERT_EQ(batched.size(), batch.size());
  for (size_t b = 0; b < batch.size(); ++b) {
    Engine solo(config, MakeRtx3090());
    solo.Prepare(net, 5);
    RunResult expect = solo.Run(batch[b]);
    ASSERT_EQ(batched[b].coords, expect.coords) << "cloud " << b;
    EXPECT_LT(MaxAbsDiff(batched[b].features, expect.features), 1e-5f) << "cloud " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, BatchSuite,
                         ::testing::Values(EngineKind::kMinuet, EngineKind::kTorchSparse,
                                           EngineKind::kMinkowski),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           return EngineKindName(info.param);
                         });

TEST(BatchTest, SingleCloudBatchMatchesRun) {
  Network net = MakeTinyUNet(4);
  EngineConfig config;
  config.kind = EngineKind::kMinuet;
  Engine engine(config, MakeRtx3090());
  engine.Prepare(net, 7);
  PointCloud cloud = MakeCloud(1000, 9);
  auto batched = engine.RunBatch({&cloud, 1});
  Engine solo(config, MakeRtx3090());
  solo.Prepare(net, 7);
  RunResult expect = solo.Run(cloud);
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_EQ(batched[0].coords, expect.coords);
  EXPECT_LT(MaxAbsDiff(batched[0].features, expect.features), 1e-5f);
}

TEST(BatchTest, BatchAmortisesLaunches) {
  Network net = MakeTinyUNet(4);
  EngineConfig config;
  config.kind = EngineKind::kMinuet;
  config.functional = false;
  std::vector<PointCloud> batch;
  for (int b = 0; b < 4; ++b) {
    batch.push_back(MakeCloud(2000, 20 + static_cast<uint64_t>(b)));
  }

  Engine fused(config, MakeRtx3090());
  fused.Prepare(net, 3);
  std::vector<RunResult> batched = fused.RunBatch(batch);

  int64_t solo_launches = 0;
  size_t solo_layers = 0;
  for (const PointCloud& cloud : batch) {
    Engine solo(config, MakeRtx3090());
    solo.Prepare(net, 3);
    RunResult result = solo.Run(cloud);
    solo_launches += result.total.launches;
    solo_layers = result.layers.size();
  }
  EXPECT_LT(batched[0].total.launches, solo_launches / 2);
  // Every per-cloud result carries the fused run's per-layer records.
  for (const RunResult& result : batched) {
    EXPECT_EQ(result.layers.size(), solo_layers);
  }
}

TEST(BatchTest, PoolingHeadsAreRejected) {
  Network net = MakeSparseResNet21(4, 20);
  EngineConfig config;
  config.kind = EngineKind::kMinuet;
  Engine engine(config, MakeRtx3090());
  engine.Prepare(net, 3);
  std::vector<PointCloud> batch = {MakeCloud(500, 30)};
  EXPECT_DEATH(engine.RunBatch(batch), "pooling");
}

}  // namespace
}  // namespace minuet
