// Full-network functional equivalence at small scale: the paper's two
// evaluation networks, all three engines, bit-for-bit comparable outputs.
#include <cstring>
#include <limits>
#include <utility>

#include <gtest/gtest.h>

#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"

namespace minuet {
namespace {

PointCloud MakeCloud(int64_t n, uint64_t seed) {
  GeneratorConfig gen;
  gen.target_points = n;
  gen.channels = 4;
  gen.seed = seed;
  return GenerateCloud(DatasetKind::kKitti, gen);
}

TEST(FullNetworkTest, MinkUNet42AllEnginesAgree) {
  Network net = MakeMinkUNet42(4);
  PointCloud cloud = MakeCloud(1200, 3);
  FeatureMatrix reference;
  std::vector<Coord3> reference_coords;
  for (EngineKind kind :
       {EngineKind::kMinuet, EngineKind::kTorchSparse, EngineKind::kMinkowski}) {
    EngineConfig config;
    config.kind = kind;
    Engine engine(config, MakeRtx3090());
    engine.Prepare(net, 7);
    RunResult got = engine.Run(cloud);
    EXPECT_EQ(got.features.cols(), 20);  // segmentation logits
    if (reference.rows() == 0) {
      reference = std::move(got.features);
      reference_coords = std::move(got.coords);
    } else {
      ASSERT_EQ(got.coords, reference_coords) << EngineKindName(kind);
      EXPECT_LT(MaxAbsDiff(got.features, reference), 5e-3f) << EngineKindName(kind);
    }
  }
}

TEST(FullNetworkTest, SparseResNet21AllEnginesAgree) {
  Network net = MakeSparseResNet21(4, 20);
  PointCloud cloud = MakeCloud(1500, 5);
  FeatureMatrix reference;
  for (EngineKind kind :
       {EngineKind::kMinuet, EngineKind::kTorchSparse, EngineKind::kMinkowski}) {
    EngineConfig config;
    config.kind = kind;
    Engine engine(config, MakeRtx3090());
    engine.Prepare(net, 9);
    RunResult got = engine.Run(cloud);
    ASSERT_EQ(got.features.rows(), 1);
    ASSERT_EQ(got.features.cols(), 20);
    if (reference.rows() == 0) {
      reference = std::move(got.features);
    } else {
      EXPECT_LT(MaxAbsDiff(got.features, reference), 5e-3f) << EngineKindName(kind);
    }
  }
}

TEST(FullNetworkTest, SessionOnNaNDirtiedMemoryMatchesFreshSession) {
  // The GMaS staging buffers are never cleared on the host: gather writes
  // their real input rows, the GEMM overwrites their real output rows, and
  // no one reads a padding row. So a session whose every workspace slab is
  // carved from NaN-filled device pages must give the logits of a fresh
  // session bit for bit, cold and warm. (An anchor allocation keeps the arena
  // from emptying, which would drop the NaN pages.)
  const std::pair<Network, PointCloud> cases[] = {
      {MakeMinkUNet42(4), MakeCloud(500, 3)},
      {MakeSparseResNet21(4, 20), MakeCloud(700, 5)},
  };
  for (const auto& [net, cloud] : cases) {
    for (EngineKind kind :
         {EngineKind::kMinuet, EngineKind::kTorchSparse, EngineKind::kMinkowski}) {
      SCOPED_TRACE(testing::Message() << net.name << " on " << EngineKindName(kind));
      EngineConfig config;
      config.kind = kind;
      Engine clean(config, MakeA100());
      clean.Prepare(net, 7);
      RunSession fresh(clean);
      const RunResult want = fresh.Run(cloud);

      Engine engine(config, MakeA100());
      engine.Prepare(net, 7);
      const FeatureMatrix anchor(1, 1, 0.0f, engine.device().memory());
      {
        FeatureMatrix nan(int64_t{1} << 23, 1, std::numeric_limits<float>::quiet_NaN(),
                          engine.device().memory());
      }
      RunSession dirty(engine);
      for (const char* pass : {"cold", "warm"}) {
        const RunResult got = dirty.Run(cloud);
        ASSERT_EQ(got.features.rows(), want.features.rows()) << pass;
        ASSERT_EQ(got.features.cols(), want.features.cols()) << pass;
        EXPECT_EQ(std::memcmp(got.features.data(), want.features.data(),
                              static_cast<size_t>(want.features.rows() * want.features.cols()) *
                                  sizeof(float)),
                  0)
            << pass;
      }
      EXPECT_EQ(dirty.stats().warm_runs, 1u);
    }
  }
}

TEST(FullNetworkTest, UNetOutputsArePerInputPoint) {
  Network net = MakeMinkUNet42(4);
  PointCloud cloud = MakeCloud(900, 11);
  EngineConfig config;
  config.kind = EngineKind::kMinuet;
  Engine engine(config, MakeRtx3090());
  engine.Prepare(net, 13);
  RunResult got = engine.Run(cloud);
  PointCloud sorted = cloud;
  SortPointCloud(sorted);
  EXPECT_EQ(got.coords, sorted.coords);
  EXPECT_EQ(got.features.rows(), cloud.num_points());
}

TEST(FullNetworkTest, DeeperDownsamplingShrinksCoordinateSets) {
  Network net = MakeSparseResNet21(4, 20);
  PointCloud cloud = MakeCloud(4000, 17);
  EngineConfig config;
  config.kind = EngineKind::kMinuet;
  config.functional = false;
  Engine engine(config, MakeRtx3090());
  engine.Prepare(net, 13);
  RunResult got = engine.Run(cloud);
  int64_t prev = INT64_MAX;
  for (const LayerRecord& layer : got.layers) {
    if (layer.params.stride > 1 && !layer.params.transposed) {
      EXPECT_LT(layer.num_outputs, layer.num_inputs);
    }
    prev = layer.num_outputs;
  }
  (void)prev;
}

}  // namespace
}  // namespace minuet
