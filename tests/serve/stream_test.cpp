// Video-rate stream scheduler: determinism (fresh schedulers and warmed
// replays byte-compare), drop/deadline semantics with chain breaks, the
// frames-dropped SLO verdict, and the stream report/metrics surfaces.
#include "src/serve/stream.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/sequence.h"
#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"
#include "src/serve/report.h"
#include "src/serve/reqtrace.h"
#include "src/serve/telemetry.h"
#include "src/trace/metrics.h"

namespace minuet {
namespace serve {
namespace {

Sequence TestSequence(int64_t frames = 6, double churn = 0.05) {
  SequenceConfig config;
  config.base_points = 500;
  config.channels = 4;
  config.num_frames = frames;
  config.seed = 11;
  config.churn_rate = churn;
  config.max_step = 1;
  return GenerateSequence(config);
}

std::unique_ptr<Engine> NewEngine() {
  EngineConfig config;
  config.functional = false;
  auto engine = std::make_unique<Engine>(config, MakeRtx3090());
  engine->Prepare(MakeTinyUNet(4), 11);
  return engine;
}

StreamServeConfig LooseConfig(int64_t num_streams) {
  StreamServeConfig config;
  config.num_streams = num_streams;
  config.frame_period_us = 50000.0;  // far beyond any frame's service time
  config.frame_deadline_us = 50000.0;
  return config;
}

std::string ReportFor(const StreamServeResult& result) {
  ServeReportContext context{"RTX 3090", "TinyUNet", "minuet", "fp32"};
  return StreamReportJson(result, context, nullptr);
}

TEST(StreamSchedulerTest, CompletesEveryFrameOnALooseClock) {
  Sequence sequence = TestSequence();
  auto engine = NewEngine();
  StreamScheduler scheduler({engine.get()}, LooseConfig(2));
  StreamServeResult result = scheduler.Run(sequence);

  const int64_t offered = 2 * static_cast<int64_t>(sequence.frames.size());
  EXPECT_EQ(result.summary.frames_offered, offered);
  EXPECT_EQ(result.summary.frames_completed, offered);
  EXPECT_EQ(result.summary.frames_dropped, 0);
  EXPECT_TRUE(result.summary.drop_slo_ok);
  // Every frame after each stream's first rides the incremental path.
  EXPECT_EQ(result.summary.frames_rebuilt, 2);
  EXPECT_EQ(result.summary.frames_incremental, offered - 2);
  ASSERT_EQ(result.requests.size(), static_cast<size_t>(offered));
  for (const RequestRecord& record : result.requests) {
    EXPECT_FALSE(record.shed);
    // id = frame * num_streams + stream; class == client == stream.
    const int64_t stream = record.request.id % 2;
    EXPECT_EQ(record.request.batch_class, static_cast<int>(stream));
    EXPECT_EQ(record.request.client, static_cast<int>(stream));
    // Incremental frames carry map_delta attribution; frame 0 carries map.
    if (record.request.id >= 2) {
      EXPECT_GT(record.trace.map_delta_ns, 0) << "request " << record.request.id;
    } else {
      EXPECT_EQ(record.trace.map_delta_ns, 0) << "request " << record.request.id;
    }
  }
}

// Two fresh schedulers over the same sequence agree on every scheduling
// decision, counter and simulated time: each engine's device has its own
// address space, so cold runs replay exactly too.
TEST(StreamSchedulerTest, FreshSchedulersAgreeOnSchedulingDecisions) {
  Sequence sequence = TestSequence();
  StreamServeResult results[2];
  for (int pass = 0; pass < 2; ++pass) {
    auto e0 = NewEngine();
    auto e1 = NewEngine();
    StreamScheduler scheduler({e0.get(), e1.get()}, LooseConfig(3));
    results[pass] = scheduler.Run(sequence);
  }
  const StreamServeSummary& a = results[0].summary;
  const StreamServeSummary& b = results[1].summary;
  EXPECT_EQ(a.frames_offered, b.frames_offered);
  EXPECT_EQ(a.frames_completed, b.frames_completed);
  EXPECT_EQ(a.frames_dropped, b.frames_dropped);
  EXPECT_EQ(a.frames_incremental, b.frames_incremental);
  EXPECT_EQ(a.frames_rebuilt, b.frames_rebuilt);
  ASSERT_EQ(results[0].requests.size(), results[1].requests.size());
  for (size_t i = 0; i < results[0].requests.size(); ++i) {
    const RequestRecord& x = results[0].requests[i];
    const RequestRecord& y = results[1].requests[i];
    EXPECT_EQ(x.request.id, y.request.id);
    EXPECT_EQ(x.device, y.device);
    EXPECT_EQ(x.batch_id, y.batch_id);
    EXPECT_EQ(x.shed, y.shed);
    EXPECT_EQ(x.warm, y.warm);
    EXPECT_EQ(x.completion_ns, y.completion_ns);
    EXPECT_EQ(x.service_cycles, y.service_cycles);
  }
  ASSERT_EQ(results[0].streams.size(), results[1].streams.size());
  for (size_t s = 0; s < results[0].streams.size(); ++s) {
    EXPECT_EQ(results[0].streams[s].completed, results[1].streams[s].completed);
    EXPECT_EQ(results[0].streams[s].frames_incremental,
              results[1].streams[s].frames_incremental);
  }
}

// Sums the counters that must stop moving before replays can byte-compare:
// plan-cache misses (new plans) and workspace-pool slab allocations (fresh
// device memory, which moves every later device allocation).
std::pair<uint64_t, uint64_t> SessionChurn(StreamScheduler& scheduler) {
  uint64_t misses = 0;
  uint64_t allocations = 0;
  for (size_t s = 0; s < scheduler.num_streams(); ++s) {
    const SessionStats stats = scheduler.stream_session(s).session().stats();
    misses += stats.plan.misses;
    allocations += stats.pool.allocations;
  }
  return {misses, allocations};
}

// The CI-gated property: a warmed 2-replica scheduler replays the sequence
// byte-identically. Warm until a whole pass records no new plans and no new
// slabs (the fleet_test replay recipe) — only then does every pass start from
// the same device memory state.
TEST(StreamSchedulerTest, WarmedTwoReplicaReplayIsByteIdentical) {
  Sequence sequence = TestSequence();
  auto e0 = NewEngine();
  auto e1 = NewEngine();
  StreamScheduler scheduler({e0.get(), e1.get()}, LooseConfig(4));
  bool converged = false;
  for (int pass = 0; pass < 8 && !converged; ++pass) {
    const auto before = SessionChurn(scheduler);
    scheduler.Run(sequence);
    converged = SessionChurn(scheduler) == before;
  }
  ASSERT_TRUE(converged) << "stream sessions still changing after 8 warm-up passes";

  StreamServeResult second = scheduler.Run(sequence);
  StreamServeResult third = scheduler.Run(sequence);
  EXPECT_EQ(ReportFor(second), ReportFor(third));
  EXPECT_EQ(RequestDumpJsonl(second.requests, second.config.frame_deadline_us),
            RequestDumpJsonl(third.requests, third.config.frame_deadline_us));
  // Warm passes serve from the plan cache and still reuse maps.
  EXPECT_GT(second.summary.frames_incremental, 0);
  for (const RequestRecord& record : second.requests) {
    EXPECT_TRUE(record.warm) << "request " << record.request.id;
  }
}

TEST(StreamSchedulerTest, StreamsPinRoundRobinAcrossReplicas) {
  Sequence sequence = TestSequence(/*frames=*/3);
  auto e0 = NewEngine();
  auto e1 = NewEngine();
  StreamScheduler scheduler({e0.get(), e1.get()}, LooseConfig(4));
  StreamServeResult result = scheduler.Run(sequence);
  ASSERT_EQ(result.streams.size(), 4u);
  for (const StreamSummary& stream : result.streams) {
    EXPECT_EQ(stream.device, static_cast<int>(stream.stream % 2));
    EXPECT_EQ(stream.frames, 3);
    EXPECT_EQ(stream.completed, 3);
  }
  for (const RequestRecord& record : result.requests) {
    EXPECT_EQ(record.device, static_cast<int>(record.request.id % 4 % 2));
  }
}

// An impossible deadline forces drops; a dropped frame breaks its stream's
// incremental chain, so the next served frame of that stream is a rebuild.
// With the deadline far below the service time, every completion (after the
// very first) sits behind drops of its own stream, so no frame can ride the
// delta path: rebuilds == completions, zero incremental frames.
TEST(StreamSchedulerTest, TightDeadlineDropsAndBreaksChains) {
  Sequence sequence = TestSequence(/*frames=*/40);
  auto engine = NewEngine();
  StreamServeConfig config;
  config.num_streams = 4;       // one replica, four streams: queueing is certain
  config.frame_period_us = 60.0;
  config.frame_deadline_us = 60.0;  // well under any frame's service time
  config.drop_slo = 0.01;
  StreamScheduler scheduler({engine.get()}, config);
  StreamServeResult result = scheduler.Run(sequence);

  EXPECT_GT(result.summary.frames_dropped, 0);
  EXPECT_GE(result.summary.frames_completed, 2);
  EXPECT_EQ(result.summary.frames_offered,
            result.summary.frames_completed + result.summary.frames_dropped);
  EXPECT_FALSE(result.summary.drop_slo_ok);
  EXPECT_GT(result.summary.drop_rate, config.drop_slo);
  // Every stream's chain is broken before it completes anything further.
  EXPECT_EQ(result.summary.frames_rebuilt, result.summary.frames_completed);
  EXPECT_EQ(result.summary.frames_incremental, 0);
  for (const RequestRecord& record : result.requests) {
    if (record.shed) {
      EXPECT_EQ(record.trace.map_delta_ns, 0);
      EXPECT_EQ(record.trace.e2e_ns, 0);
    }
  }
  // Per-stream counters roll up to the run totals.
  int64_t dropped = 0;
  int64_t rebuilt = 0;
  for (const StreamSummary& stream : result.streams) {
    dropped += stream.dropped;
    rebuilt += stream.frames_rebuilt;
  }
  EXPECT_EQ(dropped, result.summary.frames_dropped);
  EXPECT_EQ(rebuilt, result.summary.frames_rebuilt);
}

// The ablation baseline: incremental off serves identical frames with zero
// map reuse and no map_delta attribution anywhere.
TEST(StreamSchedulerTest, IncrementalOffNeverReusesMaps) {
  Sequence sequence = TestSequence();
  auto engine = NewEngine();
  StreamServeConfig config = LooseConfig(2);
  config.incremental = false;
  StreamScheduler scheduler({engine.get()}, config);
  StreamServeResult result = scheduler.Run(sequence);
  EXPECT_EQ(result.summary.frames_incremental, 0);
  EXPECT_EQ(result.summary.frames_dropped, 0);
  EXPECT_EQ(result.summary.frames_rebuilt, result.summary.frames_completed);
  for (const RequestRecord& record : result.requests) {
    EXPECT_EQ(record.trace.map_delta_ns, 0);
  }
}

// Ctrl-C in minuet_serve --stream lands here: a stop requested through the
// attached telemetry drains the run. Requested before the first event, no
// frame is dispatched and every offered frame is accounted as dropped.
TEST(StreamSchedulerTest, StopRequestDrainsIntoAValidRun) {
  Sequence sequence = TestSequence();
  auto e0 = NewEngine();
  auto e1 = NewEngine();
  StreamScheduler scheduler({e0.get(), e1.get()}, LooseConfig(3));
  ServeTelemetry telemetry(TelemetryConfig{});
  telemetry.RequestStop();
  scheduler.AttachTelemetry(&telemetry);
  StreamServeResult result = scheduler.Run(sequence);
  scheduler.AttachTelemetry(nullptr);

  const StreamServeSummary& s = result.summary;
  EXPECT_EQ(s.frames_offered, 3 * static_cast<int64_t>(sequence.frames.size()));
  EXPECT_EQ(s.frames_completed + s.frames_dropped, s.frames_offered);
  EXPECT_EQ(s.frames_completed, 0);
  EXPECT_TRUE(result.batches.empty());
  for (const RequestRecord& record : result.requests) {
    EXPECT_TRUE(record.shed) << "request " << record.request.id;
  }
}

TEST(StreamSchedulerTest, ReportAndMetricsCarryTheStreamSurface) {
  Sequence sequence = TestSequence(/*frames=*/4);
  auto engine = NewEngine();
  StreamScheduler scheduler({engine.get()}, LooseConfig(2));
  StreamServeResult result = scheduler.Run(sequence);

  const std::string report = ReportFor(result);
  EXPECT_NE(report.find("\"stream_report\":1"), std::string::npos);
  EXPECT_NE(report.find("\"stream_summary\""), std::string::npos);
  EXPECT_NE(report.find("\"frames_dropped\""), std::string::npos);
  EXPECT_NE(report.find("\"map_delta_ns\""), std::string::npos);
  EXPECT_NE(report.find("\"drop_slo_ok\""), std::string::npos);

  trace::MetricsRegistry registry;
  PublishStreamMetrics(result, registry);
  const std::string snapshot = registry.SnapshotJson();
  EXPECT_NE(snapshot.find("serve/stream/frames_offered"), std::string::npos);
  EXPECT_NE(snapshot.find("serve/stream/frames_incremental"), std::string::npos);
  EXPECT_NE(snapshot.find("serve/stream/drop_rate"), std::string::npos);
}

}  // namespace
}  // namespace serve
}  // namespace minuet
