#include "src/engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "src/core/dense_reference.h"
#include "src/core/weight_offsets.h"
#include "src/data/generators.h"
#include "src/gpusim/device_config.h"
#include "src/util/rng.h"
#include "tests/gpusim/device_peer.h"

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

Network SingleConvNet(int64_t c_in, int64_t c_out, int kernel_size, int stride,
                      bool transposed = false) {
  Network net;
  net.name = "single";
  net.in_channels = c_in;
  Instr instr;
  instr.op = Instr::Op::kConv;
  instr.conv = ConvParams{kernel_size, stride, transposed, c_in, c_out};
  net.instrs.push_back(instr);
  return net;
}

EngineConfig ConfigFor(EngineKind kind) {
  EngineConfig config;
  config.kind = kind;
  return config;
}

class EngineKindSuite : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineKindSuite, SingleConvMatchesDenseReference) {
  Network net = SingleConvNet(6, 10, 3, 1);
  Engine engine(ConfigFor(GetParam()), MakeRtx3090());
  engine.Prepare(net, 42);

  PointCloud cloud = SmallCloud(400, 9, 6, 1);
  RunResult got = engine.Run(cloud);

  auto offsets = MakeWeightOffsets(3, 1);
  FeatureMatrix expect =
      ReferenceSparseConv(cloud, cloud.coords, offsets, engine.conv_weights(0));
  ASSERT_EQ(got.features.rows(), expect.rows());
  EXPECT_LT(MaxAbsDiff(got.features, expect), 1e-4f);
  EXPECT_EQ(got.coords, cloud.coords);
}

TEST_P(EngineKindSuite, StridedConvMatchesDenseReference) {
  Network net = SingleConvNet(4, 8, 2, 2);
  Engine engine(ConfigFor(GetParam()), MakeRtx3090());
  engine.Prepare(net, 7);

  PointCloud cloud = SmallCloud(500, 12, 4, 2);
  RunResult got = engine.Run(cloud);

  auto out_coords = DownsampleCoords(cloud.coords, 2);
  auto offsets = MakeWeightOffsets(2, 1);
  FeatureMatrix expect =
      ReferenceSparseConv(cloud, out_coords, offsets, engine.conv_weights(0));
  ASSERT_EQ(got.features.rows(), expect.rows());
  EXPECT_LT(MaxAbsDiff(got.features, expect), 1e-4f);
  EXPECT_EQ(got.coords, out_coords);
}

TEST_P(EngineKindSuite, TinyUNetRunsAndPreservesCoords) {
  Network net = MakeTinyUNet(4);
  Engine engine(ConfigFor(GetParam()), MakeRtx3090());
  engine.Prepare(net, 3);
  PointCloud cloud = SmallCloud(600, 10, 4, 3);
  RunResult got = engine.Run(cloud);
  // UNet output lands back on the input coordinate set.
  EXPECT_EQ(got.coords, cloud.coords);
  EXPECT_EQ(got.features.cols(), 8);
  EXPECT_GT(got.total.TotalCycles(), 0.0);
  EXPECT_GT(got.total.launches, 0);
}

TEST_P(EngineKindSuite, ResNetProducesLogits) {
  Network net = MakeSparseResNet21(4, 20);
  Engine engine(ConfigFor(GetParam()), MakeRtx3090());
  engine.Prepare(net, 5);
  PointCloud cloud = SmallCloud(800, 20, 4, 4);
  RunResult got = engine.Run(cloud);
  EXPECT_EQ(got.features.rows(), 1);
  EXPECT_EQ(got.features.cols(), 20);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineKindSuite,
                         ::testing::Values(EngineKind::kMinuet, EngineKind::kTorchSparse,
                                           EngineKind::kMinkowski),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           return EngineKindName(info.param);
                         });

TEST(EngineTest, EngineKindPresetsRoundTrip) {
  // Every kind has a command-line name that leads back to it and starts its
  // display name (kind -> EngineKindName -> lowercase prefix -> same kind).
  const std::pair<const char*, EngineKind> presets[] = {
      {"minuet", EngineKind::kMinuet},
      {"torchsparse", EngineKind::kTorchSparse},
      {"minkowski", EngineKind::kMinkowski},
  };
  for (const auto& [preset, kind] : presets) {
    SCOPED_TRACE(preset);
    std::string name = EngineKindName(kind);
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    EXPECT_EQ(name.rfind(preset, 0), 0u) << EngineKindName(kind);
    EngineKind got = kind == EngineKind::kMinuet ? EngineKind::kMinkowski : EngineKind::kMinuet;
    ASSERT_TRUE(EngineKindForPreset(preset, &got));
    EXPECT_EQ(got, kind);
  }
  // "all" is minuet_run's own word, not an engine.
  for (const char* unknown : {"all", "Minuet", "", "minuet "}) {
    EngineKind untouched = EngineKind::kTorchSparse;
    EXPECT_FALSE(EngineKindForPreset(unknown, &untouched)) << unknown;
    EXPECT_EQ(untouched, EngineKind::kTorchSparse);
  }
}

TEST(EngineEquivalenceTest, AllEnginesAgreeOnTinyUNet) {
  Network net = MakeTinyUNet(4);
  PointCloud cloud = SmallCloud(700, 11, 4, 6);

  std::vector<RunResult> results;
  for (EngineKind kind :
       {EngineKind::kMinuet, EngineKind::kTorchSparse, EngineKind::kMinkowski}) {
    Engine engine(ConfigFor(kind), MakeRtx3090());
    engine.Prepare(net, 99);
    results.push_back(engine.Run(cloud));
  }
  ASSERT_EQ(results[0].coords, results[1].coords);
  ASSERT_EQ(results[0].coords, results[2].coords);
  EXPECT_LT(MaxAbsDiff(results[0].features, results[1].features), 1e-3f);
  EXPECT_LT(MaxAbsDiff(results[0].features, results[2].features), 1e-3f);
}

TEST(EngineEquivalenceTest, AblationVariantsAgreeOnOutputs) {
  Network net = MakeTinyUNet(4);
  PointCloud cloud = SmallCloud(500, 10, 4, 7);

  RunResult baseline;
  bool first = true;
  for (bool ss : {false, true}) {
    for (bool dtbs : {false, true}) {
      for (bool at : {false, true}) {
        for (bool pg : {false, true}) {
          EngineConfig config = ConfigFor(EngineKind::kMinuet);
          config.features = EngineFeatures{ss, dtbs, at, pg};
          Engine engine(config, MakeRtx3090());
          engine.Prepare(net, 21);
          RunResult got = engine.Run(cloud);
          if (first) {
            baseline = std::move(got);
            first = false;
          } else {
            EXPECT_LT(MaxAbsDiff(got.features, baseline.features), 1e-3f);
          }
        }
      }
    }
  }
}

TEST(EngineTest, TransposedConvMatchesReference) {
  // Down conv then transposed conv back to the input level; check the final
  // features against the composed dense references.
  Network net;
  net.name = "updown";
  net.in_channels = 4;
  Instr down;
  down.op = Instr::Op::kConv;
  down.conv = ConvParams{2, 2, false, 4, 6};
  net.instrs.push_back(down);
  Instr up;
  up.op = Instr::Op::kConv;
  up.conv = ConvParams{2, 2, true, 6, 5};
  net.instrs.push_back(up);

  Engine engine(ConfigFor(EngineKind::kMinuet), MakeRtx3090());
  engine.Prepare(net, 17);
  PointCloud cloud = SmallCloud(400, 8, 4, 8);
  RunResult got = engine.Run(cloud);

  auto mid_coords = DownsampleCoords(cloud.coords, 2);
  auto offsets = MakeWeightOffsets(2, 1);
  PointCloud mid;
  mid.coords = mid_coords;
  mid.features = ReferenceSparseConv(cloud, mid_coords, offsets, engine.conv_weights(0));
  FeatureMatrix expect =
      ReferenceSparseConvTransposed(mid, cloud.coords, offsets, engine.conv_weights(1));
  ASSERT_EQ(got.features.rows(), expect.rows());
  EXPECT_LT(MaxAbsDiff(got.features, expect), 1e-4f);
  EXPECT_EQ(got.coords, cloud.coords);
}

// Every simulated field of two KernelStats, compared exactly.
void ExpectSameSimulatedStats(const KernelStats& a, const KernelStats& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.millis, b.millis);
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.global_bytes_read, b.global_bytes_read);
  EXPECT_EQ(a.global_bytes_written, b.global_bytes_written);
  EXPECT_EQ(a.shared_bytes, b.shared_bytes);
  EXPECT_EQ(a.lane_ops, b.lane_ops);
  EXPECT_EQ(a.num_blocks, b.num_blocks);
  EXPECT_EQ(a.num_launches, b.num_launches);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_EQ(a.num_waves, b.num_waves);
  EXPECT_EQ(a.block_slots, b.block_slots);
  EXPECT_EQ(a.launch_cycles, b.launch_cycles);
  EXPECT_EQ(a.compute_cycles, b.compute_cycles);
  EXPECT_EQ(a.dram_cycles, b.dram_cycles);
  EXPECT_EQ(a.l2_cycles, b.l2_cycles);
}

TEST(EngineTest, TimingOnlyModeSkipsMathSameLaunches) {
  // The functional flag moves payload only: the simulated program, down to
  // every per-kernel counter, is the same in both modes.
  Network net = MakeTinyUNet(4);
  PointCloud cloud = SmallCloud(500, 10, 4, 9);

  for (EngineKind kind :
       {EngineKind::kMinuet, EngineKind::kTorchSparse, EngineKind::kMinkowski}) {
    SCOPED_TRACE(EngineKindName(kind));
    EngineConfig functional = ConfigFor(kind);
    EngineConfig timing = functional;
    timing.functional = false;

    Engine a(functional, MakeRtx3090());
    a.Prepare(net, 11);
    RunResult ra = a.Run(cloud);
    Engine b(timing, MakeRtx3090());
    b.Prepare(net, 11);
    RunResult rb = b.Run(cloud);
    EXPECT_EQ(ra.total.launches, rb.total.launches);
    EXPECT_EQ(ra.total.TotalCycles(), rb.total.TotalCycles());

    ExpectSameSimulatedStats(a.device().totals(), b.device().totals());
    const auto& kernels_a = a.device().kernel_aggregates();
    const auto& kernels_b = b.device().kernel_aggregates();
    ASSERT_EQ(kernels_a.size(), kernels_b.size());
    for (auto it_a = kernels_a.begin(), it_b = kernels_b.begin(); it_a != kernels_a.end();
         ++it_a, ++it_b) {
      SCOPED_TRACE(it_a->first);
      EXPECT_EQ(it_a->first, it_b->first);
      ExpectSameSimulatedStats(it_a->second, it_b->second);
    }
  }
}

TEST(EngineTest, TimingOnlyRunReturnsZerosOnDirtyDeviceMemory) {
  // Timing-only staging buffers are never written, so a run on recycled
  // device pages sees whatever they held. Dirty them with NaN first (an
  // anchor allocation keeps the arena from emptying, which would drop the
  // pages) and check that none of it reaches the caller's features.
  PointCloud cloud = SmallCloud(800, 20, 4, 4);
  for (const Network& net : {MakeTinyUNet(4), MakeSparseResNet21(4, 20)}) {
    for (EngineKind kind :
         {EngineKind::kMinuet, EngineKind::kTorchSparse, EngineKind::kMinkowski}) {
      SCOPED_TRACE(testing::Message() << net.name << " on " << EngineKindName(kind));
      Engine functional(ConfigFor(kind), MakeRtx3090());
      functional.Prepare(net, 5);
      const RunResult shape = functional.Run(cloud);

      EngineConfig config = ConfigFor(kind);
      config.functional = false;
      Engine engine(config, MakeRtx3090());
      engine.Prepare(net, 5);
      const FeatureMatrix anchor(1, 1, 0.0f, engine.device().memory());
      {
        FeatureMatrix nan(int64_t{1} << 22, 1, std::numeric_limits<float>::quiet_NaN(),
                          engine.device().memory());
      }
      RunResult got = engine.Run(cloud);
      ASSERT_EQ(got.features.rows(), shape.features.rows());
      ASSERT_EQ(got.features.cols(), shape.features.cols());
      for (int64_t i = 0; i < got.features.rows(); ++i) {
        for (int64_t j = 0; j < got.features.cols(); ++j) {
          ASSERT_EQ(got.features.At(i, j), 0.0f) << "(" << i << ", " << j << ")";
        }
      }
    }
  }
}

// `got` is all zeros and shaped like `shape`.
void ExpectZerosShapedLike(const FeatureMatrix& got, const FeatureMatrix& shape) {
  ASSERT_EQ(got.rows(), shape.rows());
  ASSERT_EQ(got.cols(), shape.cols());
  for (int64_t i = 0; i < got.rows(); ++i) {
    for (int64_t j = 0; j < got.cols(); ++j) {
      ASSERT_EQ(got.At(i, j), 0.0f) << "(" << i << ", " << j << ")";
    }
  }
}

TEST(EngineTest, TimingOnlySessionResultsAreZeros) {
  // RunSession hands out timing-only results too: zeros of the functional
  // shapes, on NaN-dirtied device memory, cold and warm.
  const Network net = MakeTinyUNet(4);
  const PointCloud cloud = SmallCloud(600, 16, 4, 21);
  for (EngineKind kind :
       {EngineKind::kMinuet, EngineKind::kTorchSparse, EngineKind::kMinkowski}) {
    SCOPED_TRACE(EngineKindName(kind));
    Engine functional(ConfigFor(kind), MakeRtx3090());
    functional.Prepare(net, 5);
    const RunResult run_shape = functional.Run(cloud);

    EngineConfig config = ConfigFor(kind);
    config.functional = false;
    Engine engine(config, MakeRtx3090());
    engine.Prepare(net, 5);
    const FeatureMatrix anchor(1, 1, 0.0f, engine.device().memory());
    {
      FeatureMatrix nan(int64_t{1} << 22, 1, std::numeric_limits<float>::quiet_NaN(),
                        engine.device().memory());
    }
    RunSession session(engine);
    for (int repeat = 0; repeat < 2; ++repeat) {
      SCOPED_TRACE(repeat == 0 ? "cold session run" : "warm session run");
      ExpectZerosShapedLike(session.Run(cloud).features, run_shape.features);
    }
    EXPECT_EQ(session.stats().warm_runs, 1u);
  }
}

// Resident set size of this process, in bytes.
int64_t ResidentBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stoll(line.substr(6)) * 1024;  // reported in kB
    }
  }
  ADD_FAILURE() << "no VmRSS in /proc/self/status";
  return 0;
}

TEST(EngineTest, TimingOnlyPrepareStoresNoWeights) {
  // MinkUNet42's weights take about 64 MB as floats; a timing-only engine
  // reads none, so preparing one must not grow the process by them.
  EngineConfig config = ConfigFor(EngineKind::kMinuet);
  config.functional = false;
  Engine engine(config, MakeRtx3090());
  const Network net = MakeMinkUNet42(4);
  const int64_t before = ResidentBytes();
  engine.Prepare(net, 1);
  const int64_t grown = ResidentBytes() - before;
  EXPECT_LT(grown, int64_t{4} << 20) << grown << " bytes";
  for (int i = 0; i < net.NumConvLayers(); ++i) {
    EXPECT_TRUE(engine.conv_weights(i).empty()) << "conv " << i;
  }
}

TEST(EngineTest, AutotunePicksDivisorsAndAffectsTiles) {
  Network net = MakeTinyUNet(4);
  EngineConfig config = ConfigFor(EngineKind::kMinuet);
  Engine engine(config, MakeRtx3090());
  engine.Prepare(net, 13);

  GeneratorConfig gen;
  gen.target_points = 4000;
  gen.channels = 4;
  PointCloud sample = GenerateCloud(DatasetKind::kS3dis, gen);
  double millis = engine.Autotune(sample);
  EXPECT_GT(millis, 0.0);

  int conv_index = 0;
  for (const Instr& instr : net.instrs) {
    if (instr.op != Instr::Op::kConv) {
      continue;
    }
    auto [g, s] = engine.layer_tiles()[static_cast<size_t>(conv_index)];
    if (!(instr.conv.kernel_size == 1 && !instr.conv.transposed && instr.conv.stride == 1)) {
      EXPECT_EQ(instr.conv.c_in % g, 0) << "conv " << conv_index;
      EXPECT_EQ(instr.conv.c_out % s, 0) << "conv " << conv_index;
    }
    ++conv_index;
  }

  // Tuned engine still computes the same function.
  PointCloud cloud = SmallCloud(500, 10, 4, 10);
  RunResult tuned = engine.Run(cloud);
  Engine untuned(config, MakeRtx3090());
  untuned.Prepare(net, 13);
  RunResult reference = untuned.Run(cloud);
  EXPECT_LT(MaxAbsDiff(tuned.features, reference.features), 1e-3f);
}

TEST(EngineTest, AutotuneIsNoOpForBaselines) {
  Network net = MakeTinyUNet(4);
  Engine engine(ConfigFor(EngineKind::kTorchSparse), MakeRtx3090());
  engine.Prepare(net, 13);
  GeneratorConfig gen;
  gen.target_points = 2000;
  PointCloud sample = GenerateCloud(DatasetKind::kRandom, gen);
  EXPECT_EQ(engine.Autotune(sample), 0.0);
}

TEST(EngineTest, LayerRecordsCoverAllConvs) {
  Network net = MakeMinkUNet42(4);
  EngineConfig config = ConfigFor(EngineKind::kMinuet);
  config.functional = false;  // keep the test fast
  Engine engine(config, MakeRtx3090());
  engine.Prepare(net, 1);
  PointCloud cloud = SmallCloud(1500, 14, 4, 11);
  RunResult got = engine.Run(cloud);
  EXPECT_EQ(static_cast<int64_t>(got.layers.size()), net.NumConvLayers());
  for (const LayerRecord& layer : got.layers) {
    EXPECT_GT(layer.num_inputs, 0);
    EXPECT_GT(layer.num_outputs, 0);
    EXPECT_GT(layer.cycles.TotalCycles(), 0.0);
  }
  EXPECT_GT(got.total.actual_rows, 0);
}

TEST(EngineTest, MinuetChargesInputSortBaselinesDoNot) {
  Network net = SingleConvNet(4, 4, 3, 1);
  PointCloud cloud = SmallCloud(2000, 20, 4, 12);

  Engine minuet_engine(ConfigFor(EngineKind::kMinuet), MakeRtx3090());
  minuet_engine.Prepare(net, 2);
  RunResult minuet_run = minuet_engine.Run(cloud);
  EXPECT_GT(minuet_run.total.map_build, 0.0);  // the one-time coordinate sort

  Engine hash_engine(ConfigFor(EngineKind::kTorchSparse), MakeRtx3090());
  hash_engine.Prepare(net, 2);
  RunResult hash_run = hash_engine.Run(cloud);
  EXPECT_GT(hash_run.total.map_build, 0.0);  // the hash-table build
}

TEST(NetworkTest, LayerCountsMatchTheirNames) {
  EXPECT_EQ(MakeMinkUNet42(4).NumConvLayers(), 42);
  EXPECT_EQ(MakeSparseResNet21(4, 20).NumConvLayers(), 21);
}

TEST(NetworkTest, SlotsAreBounded) {
  Network net = MakeMinkUNet42(4);
  EXPECT_GE(net.NumSlots(), 5);
  EXPECT_LE(net.NumSlots(), 8);
}

TEST(StepBreakdownTest, PaddingOverheadMatchesFigure5Convention) {
  // padded_rows accumulates GroupingPlan::padded_rows() — the excess — so the
  // run-level metric stays (padded - actual) / actual, same as the per-plan
  // one (pinned in grouping_test).
  StepBreakdown b;
  b.padded_rows = 9;
  b.actual_rows = 18;
  EXPECT_DOUBLE_EQ(b.PaddingOverhead(), 0.5);
  StepBreakdown empty;
  EXPECT_DOUBLE_EQ(empty.PaddingOverhead(), 0.0);  // no 0/0 NaN on empty runs
}

TEST(ParallelLaunchTest, EveryDeclaredKernelMatchesSerialInEveryMode) {
  // A functional MinkUNet42 run on Minuet reaches every kernel that declares
  // independent blocks. In every launch mode its logits, the device's totals,
  // per-kernel aggregates and L2 counters must be a one-worker run's.
  const Network net = MakeMinkUNet42(4);
  GeneratorConfig gen;
  gen.target_points = 500;
  gen.channels = 4;
  gen.seed = 21;
  const PointCloud cloud = GenerateCloud(DatasetKind::kKitti, gen);
  auto run = [&](auto set_up_device) {
    auto engine = std::make_unique<Engine>(EngineConfig{}, MakeRtx3090());
    set_up_device(engine->device());
    engine->Prepare(net, 7);
    RunResult result = engine->Run(cloud);
    return std::make_pair(std::move(engine), std::move(result));
  };
  const auto [serial, want] = run(MakeOneWorker);
  for (const char* kernel :
       {"gmas/buffer/memset", "gmas/gather/tile_copy", "gmas/scatter/tile_reduce",
        "gmas/metadata/build_tables", "map/query/forward_search", "engine/elementwise/bn_relu",
        "engine/elementwise/residual_add", "engine/elementwise/copy_features"}) {
    ASSERT_EQ(serial->device().kernel_aggregates().count(kernel), 1u) << kernel;
  }
  for (const LaunchMode& mode : ParallelLaunchModes()) {
    SCOPED_TRACE(mode.name);
    const auto [engine, got] = run([&](Device& device) { ApplyLaunchMode(device, mode); });
    ASSERT_EQ(got.features.rows(), want.features.rows());
    ASSERT_EQ(got.features.cols(), want.features.cols());
    EXPECT_EQ(std::memcmp(got.features.data(), want.features.data(),
                          static_cast<size_t>(want.features.rows() * want.features.cols()) *
                              sizeof(float)),
              0);
    ExpectSameDeviceState(engine->device(), serial->device());
  }
}

}  // namespace
}  // namespace minuet
