// API-misuse and invariant-violation tests: every MINUET_CHECK guarding the
// public surface must fire loudly instead of corrupting state.
#include <gtest/gtest.h>

#include "src/core/dense_reference.h"
#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/gmas/executor.h"
#include "src/gmas/grouping.h"
#include "src/gpusim/device_config.h"
#include "src/map/minuet_map.h"

namespace minuet {
namespace {

PointCloud TinyCloud(int64_t channels) {
  GeneratorConfig gen;
  gen.target_points = 200;
  gen.channels = channels;
  gen.seed = 1;
  return GenerateCloud(DatasetKind::kRandom, gen);
}

TEST(FailureInjectionTest, RunBeforePrepareDies) {
  EngineConfig config;
  Engine engine(config, MakeRtx3090());
  PointCloud cloud = TinyCloud(4);
  EXPECT_DEATH(engine.Run(cloud), "Prepare");
}

TEST(FailureInjectionTest, ChannelMismatchDies) {
  EngineConfig config;
  Engine engine(config, MakeRtx3090());
  engine.Prepare(MakeTinyUNet(4), 1);
  PointCloud cloud = TinyCloud(7);  // network expects 4 channels
  EXPECT_DEATH(engine.Run(cloud), "channels");
}

TEST(FailureInjectionTest, TransposedConvWithoutParentDies) {
  Network net;
  net.name = "bad";
  net.in_channels = 4;
  Instr up;
  up.op = Instr::Op::kConv;
  up.conv = ConvParams{2, 2, /*transposed=*/true, 4, 4};
  net.instrs.push_back(up);
  EngineConfig config;
  Engine engine(config, MakeRtx3090());
  engine.Prepare(net, 1);
  PointCloud cloud = TinyCloud(4);
  EXPECT_DEATH(engine.Run(cloud), "parent|encoder");
  EXPECT_DEATH(engine.Autotune(cloud), "parent|encoder");
}

TEST(FailureInjectionTest, GenerativeStridedConvDies) {
  Network net;
  net.name = "bad";
  net.in_channels = 4;
  Instr conv;
  conv.op = Instr::Op::kConv;
  conv.conv = ConvParams{3, 2, false, 4, 4, /*generative=*/true};
  net.instrs.push_back(conv);
  EngineConfig config;
  Engine engine(config, MakeRtx3090());
  engine.Prepare(net, 1);
  PointCloud cloud = TinyCloud(4);
  EXPECT_DEATH(engine.Run(cloud), "stride");
  EXPECT_DEATH(engine.Autotune(cloud), "stride");
}

TEST(FailureInjectionTest, ConvChannelMismatchDiesInPrepare) {
  // The second conv expects 8 channels but receives the first one's 6.
  Network net;
  net.name = "bad";
  net.in_channels = 4;
  Instr first;
  first.op = Instr::Op::kConv;
  first.conv = ConvParams{3, 1, false, 4, 6};
  net.instrs.push_back(first);
  Instr second = first;
  second.conv = ConvParams{3, 1, false, 8, 8};
  net.instrs.push_back(second);
  EngineConfig config;
  Engine engine(config, MakeRtx3090());
  EXPECT_DEATH(engine.Prepare(net, 1), "channels");
}

TEST(FailureInjectionTest, ResidualAddAcrossLevelsDies) {
  // Save at one coordinate level, downsample, then add: must abort.
  Network net;
  net.name = "bad";
  net.in_channels = 4;
  Instr save;
  save.op = Instr::Op::kResidualSave;
  save.slot = 0;
  net.instrs.push_back(save);
  Instr down;
  down.op = Instr::Op::kConv;
  down.conv = ConvParams{2, 2, false, 4, 4};
  net.instrs.push_back(down);
  Instr add;
  add.op = Instr::Op::kResidualAdd;
  add.slot = 0;
  net.instrs.push_back(add);

  EngineConfig config;
  Engine engine(config, MakeRtx3090());
  engine.Prepare(net, 1);
  PointCloud cloud = TinyCloud(4);
  EXPECT_DEATH(engine.Run(cloud), "levels");
}

TEST(FailureInjectionTest, DuplicateSourceKeysDieInReference) {
  std::vector<Coord3> dup = {{0, 0, 0}, {1, 0, 0}, {0, 0, 0}};
  std::vector<Coord3> offsets = {{0, 0, 0}};
  EXPECT_DEATH(ReferenceMapPositions(dup, dup, offsets), "duplicate");
}

TEST(FailureInjectionTest, OutOfLatticeQueriesMissGracefully) {
  // Output coordinates at the lattice edge + offsets that would wrap across
  // packed-key fields: builders must neither abort nor alias keys — the
  // wrapping query simply reports no match.
  std::vector<Coord3> offsets = {{1, 0, 0}, {0, 0, 0}};
  Device dev(MakeRtx3090());
  const DeviceVector<uint64_t> keys(1, PackCoord(Coord3{kCoordMax, 0, 0}), dev.memory());
  MinuetMapBuilder builder;
  MapBuildInput in;
  in.source_keys = keys;
  in.output_keys = keys;
  in.offsets = offsets;
  in.source_sorted = true;
  in.output_sorted = true;
  MapBuildResult result = builder.Build(dev, in);
  ASSERT_EQ(result.table.positions.size(), 2u);
  EXPECT_EQ(result.table.At(0, 0), kNoMatch);  // wrapping query misses
  EXPECT_EQ(result.table.At(1, 0), 0u);        // identity offset still hits
}

TEST(FailureInjectionTest, MismatchedWeightShapesDie) {
  Device dev(MakeRtx3090());
  KernelMap map;
  map.offsets = {{0, 0, 0}};
  map.entries.resize(1);
  map.entries[0].push_back(MapPair{0, 0});
  FeatureMatrix input(1, 4);
  std::vector<FeatureMatrix> weights;
  weights.emplace_back(6, 8);  // wrong c_in: 6 != 4
  FeatureMatrix output(1, 8);
  GmasConfig config;
  EXPECT_DEATH(RunGatherGemmScatter(dev, map, input, weights, output, config), "");
}

TEST(FailureInjectionTest, NegativeGroupSizesDie) {
  EXPECT_DEATH(PlanGemmGroups({5, -1, 3}, GroupingStrategy::kSortedOrder), "");
}

}  // namespace
}  // namespace minuet
