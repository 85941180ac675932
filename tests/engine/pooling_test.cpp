// Sparse pooling layers: max / average reduction driven by the kernel map.
#include <unordered_map>

#include <gtest/gtest.h>

#include "src/core/dense_reference.h"
#include "src/core/weight_offsets.h"
#include "src/engine/engine.h"
#include "src/gmas/pooling.h"
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

// Brute-force pooling oracle.
FeatureMatrix ReferencePool(const PointCloud& input, const std::vector<Coord3>& out_coords,
                            const std::vector<Coord3>& offsets, PoolMode mode) {
  std::unordered_map<uint64_t, uint32_t> index;
  for (size_t i = 0; i < input.coords.size(); ++i) {
    index[PackCoord(input.coords[i])] = static_cast<uint32_t>(i);
  }
  const int64_t c = input.channels();
  FeatureMatrix out(static_cast<int64_t>(out_coords.size()), c, 0.0f);
  for (size_t q = 0; q < out_coords.size(); ++q) {
    int64_t contributors = 0;
    for (const Coord3& d : offsets) {
      Coord3 cand = out_coords[q] + d;
      if (!CoordInRange(cand)) {
        continue;
      }
      auto it = index.find(PackCoord(cand));
      if (it == index.end()) {
        continue;
      }
      auto row = input.features.Row(it->second);
      for (int64_t j = 0; j < c; ++j) {
        if (mode == PoolMode::kMax) {
          out.At(static_cast<int64_t>(q), j) =
              contributors == 0 ? row[static_cast<size_t>(j)]
                                : std::max(out.At(static_cast<int64_t>(q), j),
                                           row[static_cast<size_t>(j)]);
        } else {
          out.At(static_cast<int64_t>(q), j) += row[static_cast<size_t>(j)];
        }
      }
      ++contributors;
    }
    if (mode == PoolMode::kAverage && contributors > 0) {
      for (int64_t j = 0; j < c; ++j) {
        out.At(static_cast<int64_t>(q), j) /= static_cast<float>(contributors);
      }
    }
  }
  return out;
}

TEST(PoolKernelTest, MatchesReferenceMax) {
  Device dev(MakeRtx3090());
  PointCloud cloud = SmallCloud(300, 10, 5, 1);
  auto out_coords = DownsampleCoords(cloud.coords, 2);
  auto offsets = MakeWeightOffsets(2, 1);
  MapPositionTable table = ReferenceMapPositions(cloud.coords, out_coords, offsets);
  table.positions = ToDevice(dev.memory(), table.positions);
  FeatureMatrix out(static_cast<int64_t>(out_coords.size()), 5, 0.0f, dev.memory());
  SparsePoolKernel(dev, table, FeatureMatrix(cloud.features, dev.memory()), out,
                   PoolMode::kMax);
  EXPECT_LT(MaxAbsDiff(out, ReferencePool(cloud, out_coords, offsets, PoolMode::kMax)), 1e-6f);
}

TEST(PoolKernelTest, MatchesReferenceAverage) {
  Device dev(MakeRtx3090());
  PointCloud cloud = SmallCloud(300, 10, 3, 2);
  auto out_coords = DownsampleCoords(cloud.coords, 2);
  auto offsets = MakeWeightOffsets(2, 1);
  MapPositionTable table = ReferenceMapPositions(cloud.coords, out_coords, offsets);
  table.positions = ToDevice(dev.memory(), table.positions);
  FeatureMatrix out(static_cast<int64_t>(out_coords.size()), 3, 0.0f, dev.memory());
  SparsePoolKernel(dev, table, FeatureMatrix(cloud.features, dev.memory()), out,
                   PoolMode::kAverage);
  EXPECT_LT(MaxAbsDiff(out, ReferencePool(cloud, out_coords, offsets, PoolMode::kAverage)),
            1e-5f);
}

Network PoolNet(Instr::Op op, int kernel_size, int stride) {
  Network net;
  net.name = "pool";
  net.in_channels = 4;
  Instr instr;
  instr.op = op;
  instr.conv.kernel_size = kernel_size;
  instr.conv.stride = stride;
  net.instrs.push_back(instr);
  return net;
}

class PoolEngineSuite : public ::testing::TestWithParam<EngineKind> {};

TEST_P(PoolEngineSuite, StridedMaxPoolMatchesReference) {
  Network net = PoolNet(Instr::Op::kMaxPool, 2, 2);
  EngineConfig config;
  config.kind = GetParam();
  Engine engine(config, MakeRtx3090());
  engine.Prepare(net, 3);
  PointCloud cloud = SmallCloud(500, 12, 4, 3);
  RunResult got = engine.Run(cloud);

  auto out_coords = DownsampleCoords(cloud.coords, 2);
  auto offsets = MakeWeightOffsets(2, 1);
  PointCloud sorted = cloud;
  SortPointCloud(sorted);
  FeatureMatrix expect = ReferencePool(sorted, out_coords, offsets, PoolMode::kMax);
  ASSERT_EQ(got.coords, out_coords);
  EXPECT_LT(MaxAbsDiff(got.features, expect), 1e-5f);
}

TEST_P(PoolEngineSuite, Stride1AvgPoolSmoothsInPlace) {
  Network net = PoolNet(Instr::Op::kAvgPool, 3, 1);
  EngineConfig config;
  config.kind = GetParam();
  Engine engine(config, MakeRtx3090());
  engine.Prepare(net, 3);
  PointCloud cloud = SmallCloud(400, 9, 4, 4);
  RunResult got = engine.Run(cloud);

  PointCloud sorted = cloud;
  SortPointCloud(sorted);
  auto offsets = MakeWeightOffsets(3, 1);
  FeatureMatrix expect = ReferencePool(sorted, sorted.coords, offsets, PoolMode::kAverage);
  ASSERT_EQ(got.coords, sorted.coords);
  EXPECT_LT(MaxAbsDiff(got.features, expect), 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, PoolEngineSuite,
                         ::testing::Values(EngineKind::kMinuet, EngineKind::kTorchSparse,
                                           EngineKind::kMinkowski),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           return EngineKindName(info.param);
                         });

TEST(PoolEngineTest, PoolingInsideNetworkWithConvs) {
  // conv -> strided max pool -> conv: coordinate flow and autotuning survive.
  Network net;
  net.name = "conv_pool_conv";
  net.in_channels = 4;
  Instr conv1;
  conv1.op = Instr::Op::kConv;
  conv1.conv = ConvParams{3, 1, false, 4, 8};
  net.instrs.push_back(conv1);
  Instr pool;
  pool.op = Instr::Op::kMaxPool;
  pool.conv.kernel_size = 2;
  pool.conv.stride = 2;
  net.instrs.push_back(pool);
  Instr conv2;
  conv2.op = Instr::Op::kConv;
  conv2.conv = ConvParams{3, 1, false, 8, 8};
  net.instrs.push_back(conv2);

  PointCloud cloud = SmallCloud(600, 12, 4, 5);
  FeatureMatrix reference;
  for (EngineKind kind :
       {EngineKind::kMinuet, EngineKind::kTorchSparse, EngineKind::kMinkowski}) {
    EngineConfig config;
    config.kind = kind;
    Engine engine(config, MakeRtx3090());
    engine.Prepare(net, 11);
    if (kind == EngineKind::kMinuet) {
      engine.Autotune(cloud);  // exercises the pool-aware coordinate trace
    }
    RunResult got = engine.Run(cloud);
    if (reference.rows() == 0) {
      reference = std::move(got.features);
    } else {
      EXPECT_LT(MaxAbsDiff(reference, got.features), 1e-4f);
    }
  }
}

}  // namespace
}  // namespace minuet
