// Engine behaviour across simulated GPU architectures and autotuning with
// multiple samples (Algorithm 2 line 1).
#include <gtest/gtest.h>

#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"
#include "src/trace/trace.h"
#include "src/util/rng.h"

namespace minuet {
namespace {

PointCloud MakeCloud(int64_t n, uint64_t seed) {
  GeneratorConfig gen;
  gen.target_points = n;
  gen.channels = 4;
  gen.seed = seed;
  return GenerateCloud(DatasetKind::kS3dis, gen);
}

TEST(EngineDeviceTest, OutputsIdenticalAcrossGpuModels) {
  // The device model changes time, never results.
  Network net = MakeTinyUNet(4);
  PointCloud cloud = MakeCloud(3000, 1);
  FeatureMatrix reference;
  for (const DeviceConfig& device : AllDeviceConfigs()) {
    EngineConfig config;
    config.kind = EngineKind::kMinuet;
    Engine engine(config, device);
    engine.Prepare(net, 3);
    RunResult result = engine.Run(cloud);
    if (reference.rows() == 0) {
      reference = std::move(result.features);
    } else {
      EXPECT_EQ(MaxAbsDiff(reference, result.features), 0.0f) << device.name;
    }
  }
}

TEST(EngineDeviceTest, FasterGpuModelsSimulateFasterRuns) {
  Network net = MakeTinyUNet(4);
  PointCloud cloud = MakeCloud(20000, 2);
  EngineConfig config;
  config.kind = EngineKind::kTorchSparse;
  config.functional = false;

  auto run_ms = [&](const DeviceConfig& device) {
    Engine engine(config, device);
    engine.Prepare(net, 3);
    return device.CyclesToMillis(engine.Run(cloud).total.TotalCycles());
  };
  double slowest = run_ms(MakeRtx2070Super());
  double fastest = run_ms(MakeA100());
  EXPECT_GT(slowest, fastest * 1.3);
}

TEST(EngineDeviceTest, MultiSampleAutotuneUsesAllSamples) {
  Network net = MakeTinyUNet(4);
  EngineConfig config;
  config.kind = EngineKind::kMinuet;
  Engine engine(config, MakeRtx3090());
  engine.Prepare(net, 3);

  std::vector<PointCloud> samples;
  samples.push_back(MakeCloud(2000, 10));
  samples.push_back(MakeCloud(4000, 11));
  samples.push_back(MakeCloud(3000, 12));
  double ms = engine.Autotune(samples);
  EXPECT_GT(ms, 0.0);
  int conv_index = 0;
  for (const Instr& instr : net.instrs) {
    if (instr.op != Instr::Op::kConv) {
      continue;
    }
    auto [g, s] = engine.layer_tiles()[static_cast<size_t>(conv_index)];
    if (!(instr.conv.kernel_size == 1 && instr.conv.stride == 1 && !instr.conv.transposed)) {
      EXPECT_EQ(instr.conv.c_in % g, 0);
      EXPECT_EQ(instr.conv.c_out % s, 0);
    }
    ++conv_index;
  }

  // Tuned engine still computes the same function as an untuned one.
  PointCloud cloud = MakeCloud(2500, 13);
  RunResult tuned = engine.Run(cloud);
  Engine untuned(config, MakeRtx3090());
  untuned.Prepare(net, 3);
  RunResult plain = untuned.Run(cloud);
  EXPECT_LT(MaxAbsDiff(tuned.features, plain.features), 1e-4f);
}

TEST(EngineDeviceTest, AutotunePicksRecordedMinkUNet42Tiles) {
  // Golden: the (gather, scatter) tiles the serial autotuner picked, one
  // pair per conv layer. Profiling candidates on worker threads must not
  // move any of them. The 2080 Ti row also moves if the probe operands land
  // at other device addresses.
  const std::vector<std::pair<DeviceConfig, std::vector<std::pair<int, int>>>> kRecorded = {
      {MakeRtx3090(),
       {{1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {4, 4},
        {1, 1}, {1, 1}, {1, 1}, {1, 2}, {2, 2}, {4, 4}, {2, 2}, {2, 2}, {1, 1}, {1, 1}, {1, 1},
        {4, 4}, {1, 1}, {1, 1}, {1, 2}, {2, 4}, {4, 4}, {4, 4}, {1, 1}, {3, 1}, {1, 1}, {4, 4},
        {1, 1}, {1, 2}, {2, 2}, {4, 4}, {1, 1}, {4, 2}, {2, 2}, {4, 4}, {4, 4}}},
      {MakeRtx2080Ti(),
       {{1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 2}, {2, 2}, {4, 4},
        {2, 2}, {2, 2}, {1, 2}, {2, 4}, {4, 4}, {4, 4}, {4, 4}, {4, 4}, {4, 2}, {2, 1}, {1, 1},
        {4, 4}, {1, 1}, {1, 1}, {1, 1}, {4, 8}, {8, 8}, {4, 4}, {8, 4}, {6, 4}, {4, 4}, {4, 4},
        {2, 1}, {2, 3}, {1, 3}, {4, 4}, {1, 3}, {2, 3}, {3, 3}, {4, 4}, {4, 4}}}};
  GeneratorConfig gen;
  gen.target_points = 2000;
  gen.channels = 4;
  gen.seed = 7;
  const PointCloud sample = GenerateCloud(DatasetKind::kKitti, gen);
  for (const auto& [device, tiles] : kRecorded) {
    EngineConfig config;
    config.kind = EngineKind::kMinuet;
    config.functional = false;
    Engine engine(config, device);
    engine.Prepare(MakeMinkUNet42(4), 5);
    engine.Autotune(sample);
    EXPECT_EQ(engine.layer_tiles(), tiles) << device.name;
  }
}

TEST(EngineDeviceTest, AutotuneTracesOneDeterministicStepSpan) {
  Network net = MakeTinyUNet(4);
  PointCloud sample = MakeCloud(2000, 10);
  auto traced_names = [&] {
    EngineConfig config;
    config.kind = EngineKind::kMinuet;
    Engine engine(config, MakeRtx3090());
    engine.Prepare(net, 3);
    trace::Tracer tracer;
    trace::Tracer::Install(&tracer);
    engine.Autotune(sample);
    trace::Tracer::Install(nullptr);
    EXPECT_TRUE(tracer.Balanced());
    std::vector<std::string> names;
    int autotune_spans = 0;
    for (const trace::SpanRecord& span : tracer.spans()) {
      names.push_back(span.name);
      // Candidate launches stay out of the trace on every thread.
      EXPECT_NE(span.name, "gmas/gather/tile_copy");
      EXPECT_NE(span.name, "gmas/scatter/tile_reduce");
      if (span.name != "engine/autotune") {
        continue;
      }
      ++autotune_spans;
      EXPECT_EQ(span.category, "step");
      EXPECT_EQ(span.parent, -1);
      int64_t layers = 0;
      int64_t candidates = 0;
      for (const auto& [key, value] : span.attrs) {
        if (key == "layers") {
          layers = std::get<int64_t>(value);
        } else if (key == "candidates") {
          candidates = std::get<int64_t>(value);
        }
      }
      EXPECT_GT(layers, 0);
      EXPECT_GT(candidates, 2 * layers);
    }
    EXPECT_EQ(autotune_spans, 1);
    return names;
  };
  EXPECT_EQ(traced_names(), traced_names());
}

TEST(EngineDeviceTest, EmptySampleListIsNoOp) {
  Network net = MakeTinyUNet(4);
  EngineConfig config;
  config.kind = EngineKind::kMinuet;
  Engine engine(config, MakeRtx3090());
  engine.Prepare(net, 3);
  EXPECT_EQ(engine.Autotune(std::span<const PointCloud>{}), 0.0);
}

TEST(EngineDeviceTest, RepeatedRunsAreDeterministic) {
  Network net = MakeTinyUNet(4);
  PointCloud cloud = MakeCloud(2000, 4);
  EngineConfig config;
  config.kind = EngineKind::kMinuet;
  Engine engine(config, MakeRtx3090());
  engine.Prepare(net, 9);
  RunResult a = engine.Run(cloud);
  RunResult b = engine.Run(cloud);
  EXPECT_EQ(MaxAbsDiff(a.features, b.features), 0.0f);
  EXPECT_EQ(a.total.launches, b.total.launches);
}

TEST(EngineDeviceTest, LargerCloudsCostMoreCycles) {
  Network net = MakeTinyUNet(4);
  EngineConfig config;
  config.kind = EngineKind::kMinuet;
  config.functional = false;
  PointCloud small_cloud = MakeCloud(4000, 5);
  PointCloud big_cloud = MakeCloud(40000, 5);

  Engine engine_a(config, MakeRtx3090());
  engine_a.Prepare(net, 3);
  double small_ms = engine_a.Run(small_cloud).total.TotalCycles();
  Engine engine_b(config, MakeRtx3090());
  engine_b.Prepare(net, 3);
  double big_ms = engine_b.Run(big_cloud).total.TotalCycles();
  EXPECT_GT(big_ms, small_ms * 1.5);
}

}  // namespace
}  // namespace minuet
