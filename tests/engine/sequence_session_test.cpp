// SequenceSession tests: the incremental path must produce bit-identical
// results to per-frame full runs, while attributing its (cheaper) map
// maintenance to StepBreakdown::map_delta.
#include <vector>

#include <gtest/gtest.h>

#include "src/data/sequence.h"
#include "src/engine/engine.h"
#include "src/engine/sequence_session.h"
#include "src/gpusim/device_config.h"

namespace minuet {
namespace {

SequenceConfig MakeSequenceConfig(double churn = 0.08) {
  SequenceConfig config;
  config.base_points = 800;
  config.channels = 4;
  config.num_frames = 5;
  config.seed = 31;
  config.churn_rate = churn;
  config.max_step = 2;
  return config;
}

// Constructs-in-place (Engine is not movable: it owns the simulated device).
struct TestEngine {
  Engine engine;
  TestEngine(int64_t channels, uint64_t seed) : engine(EngineConfig{}, MakeRtx3090()) {
    engine.Prepare(MakeTinyUNet(channels), seed);
  }
};

FrameRunResult RunSequenceFrame(SequenceSession& session, const SequenceFrame& frame) {
  return frame.frame == 0
             ? session.RunFrame(frame.cloud)
             : session.RunFrame(frame.cloud, frame.motion, frame.deleted, frame.inserted);
}

void ExpectSameRun(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.coords.size(), b.coords.size());
  for (size_t i = 0; i < a.coords.size(); ++i) {
    EXPECT_EQ(PackCoord(a.coords[i]), PackCoord(b.coords[i]));
  }
  ASSERT_EQ(a.features.rows(), b.features.rows());
  ASSERT_EQ(a.features.cols(), b.features.cols());
  for (int64_t r = 0; r < a.features.rows(); ++r) {
    for (int64_t c = 0; c < a.features.cols(); ++c) {
      ASSERT_EQ(a.features.At(r, c), b.features.At(r, c)) << "row " << r << " col " << c;
    }
  }
}

// The correctness invariant end to end: every frame's output (coordinates and
// feature values) is bit-identical whether the input sort is paid or the
// sorted array is maintained incrementally.
TEST(SequenceSessionTest, IncrementalMatchesFullSortBitExactly) {
  Sequence sequence = GenerateSequence(MakeSequenceConfig());
  TestEngine full_engine(sequence.config.channels, 3);
  TestEngine incr_engine(sequence.config.channels, 3);

  SequenceSession full(full_engine.engine, /*incremental=*/false);
  SequenceSession incr(incr_engine.engine);

  for (const SequenceFrame& frame : sequence.frames) {
    FrameRunResult a = RunSequenceFrame(full, frame);
    FrameRunResult b = RunSequenceFrame(incr, frame);
    ExpectSameRun(a.run, b.run);
    EXPECT_FALSE(a.incremental);
    if (frame.frame > 0) {
      EXPECT_TRUE(b.incremental);
      // The frame charges delta maintenance instead of the input sort...
      EXPECT_GT(b.run.total.map_delta, 0.0);
      EXPECT_DOUBLE_EQ(a.run.total.map_delta, 0.0);
      // ...and ends up cheaper on the map side overall.
      EXPECT_LT(b.run.total.MapCycles() + b.run.total.map_delta, a.run.total.MapCycles());
    }
  }
  EXPECT_EQ(full.chain().frames_incremental(), 0);
  EXPECT_EQ(full.chain().frames_rebuilt(), static_cast<int64_t>(sequence.frames.size()));
  EXPECT_EQ(incr.chain().frames_incremental(), static_cast<int64_t>(sequence.frames.size()) - 1);
  EXPECT_EQ(incr.chain().frames_rebuilt(), 1);
}

// ResetChain simulates a dropped frame: the next frame takes the full path,
// the one after resumes incrementally, and results still match.
TEST(SequenceSessionTest, ResetChainRebuildsThenResumes) {
  Sequence sequence = GenerateSequence(MakeSequenceConfig());
  TestEngine engine(sequence.config.channels, 3);
  TestEngine ref_engine(sequence.config.channels, 3);
  SequenceSession session(engine.engine);
  SequenceSession ref(ref_engine.engine, /*incremental=*/false);

  ASSERT_GE(sequence.frames.size(), 4u);
  for (size_t f = 0; f < sequence.frames.size(); ++f) {
    if (f == 2) {
      session.ResetChain();
      EXPECT_FALSE(session.chain().chained());
    }
    FrameRunResult got = RunSequenceFrame(session, sequence.frames[f]);
    FrameRunResult want = RunSequenceFrame(ref, sequence.frames[f]);
    ExpectSameRun(got.run, want.run);
    EXPECT_EQ(got.incremental, f != 0 && f != 2);
  }
  EXPECT_EQ(session.chain().frames_rebuilt(), 2);  // frame 0 and the post-reset frame
}

// Churn above kRebuildChurn takes the full path for that frame, then the
// chain continues.
TEST(SequenceSessionTest, HighChurnFallsBackPerFrame) {
  Sequence sequence = GenerateSequence(MakeSequenceConfig(/*churn=*/0.8));
  TestEngine engine(sequence.config.channels, 3);
  SequenceSession session(engine.engine);
  for (const SequenceFrame& frame : sequence.frames) {
    EXPECT_FALSE(RunSequenceFrame(session, frame).incremental);
  }
  EXPECT_EQ(session.chain().frames_incremental(), 0);
  EXPECT_EQ(session.chain().frames_rebuilt(), static_cast<int64_t>(sequence.frames.size()));
  EXPECT_TRUE(session.chain().chained());  // the fallback still retains the frame
}

// A second pass over the same sequence must restart the chain through the
// 1-arg RunFrame (the retained array describes the last frame of pass one)
// and reproduce the same outputs (the second pass runs warm through the plan
// cache, so only results — not cycles — are comparable).
TEST(SequenceSessionTest, SecondPassRestartsCleanly) {
  Sequence sequence = GenerateSequence(MakeSequenceConfig());
  TestEngine engine(sequence.config.channels, 3);
  SequenceSession session(engine.engine);
  std::vector<FrameRunResult> first_pass;
  for (const SequenceFrame& frame : sequence.frames) {
    first_pass.push_back(RunSequenceFrame(session, frame));
  }
  for (size_t f = 0; f < sequence.frames.size(); ++f) {
    FrameRunResult result = RunSequenceFrame(session, sequence.frames[f]);
    ExpectSameRun(result.run, first_pass[f].run);
    EXPECT_EQ(result.incremental, f != 0);
  }
  EXPECT_EQ(session.chain().frames_rebuilt(), 2);  // frame 0 of each pass
}

}  // namespace
}  // namespace minuet
