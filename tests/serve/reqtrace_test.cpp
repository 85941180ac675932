// Per-request causal tracing: the recorder's busy-integral bookkeeping and
// server-wait/batch-delay split in isolation, the segment-sum invariant over
// real fleet runs (including shed, zero-capacity, and same-instant edge
// cases), and the JSONL dump round-trip / replay determinism.
#include "src/serve/reqtrace.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"
#include "src/serve/arrival.h"
#include "src/serve/fleet.h"
#include "src/serve/request.h"
#include "src/serve/scheduler.h"
#include "src/util/json_reader.h"

namespace minuet {
namespace serve {
namespace {

Request Req(int64_t id, double arrival_us, int64_t points = 300, uint64_t cloud_seed = 5) {
  Request r;
  r.id = id;
  r.arrival_us = arrival_us;
  r.points = points;
  r.dataset = DatasetKind::kRandom;
  r.cloud_seed = cloud_seed;
  return r;
}

std::unique_ptr<Engine> NewEngine(const DeviceConfig& device) {
  EngineConfig config;
  config.functional = false;
  auto engine = std::make_unique<Engine>(config, device);
  engine->Prepare(MakeTinyUNet(4), 1);
  return engine;
}

ExecPhaseCycles SomeCycles() {
  ExecPhaseCycles c;
  c.map = 1.0;
  c.gather = 3.0;
  c.gemm = 5.0;
  c.scatter = 2.0;
  c.other = 1.0;
  return c;
}

// Every derived total is an exact sum of segments, and the nine segments sum
// to e2e — the invariant the recorder CHECKs at record time, re-asserted here
// so a failure reads as a test diff instead of a process abort elsewhere.
void ExpectCoherent(const PhaseTrace& t) {
  EXPECT_EQ(t.SegmentSum(), t.e2e_ns);
  EXPECT_EQ(t.queue_ns, t.admission_ns + t.server_wait_ns + t.batch_delay_ns);
  EXPECT_EQ(t.exec_ns, t.map_ns + t.gather_ns + t.gemm_ns + t.scatter_ns + t.exec_other_ns);
  EXPECT_EQ(t.service_ns, t.exec_ns + t.stream_wait_ns);
  EXPECT_EQ(t.e2e_ns, t.queue_ns + t.service_ns);
  for (int64_t segment : {t.admission_ns, t.server_wait_ns, t.batch_delay_ns, t.map_ns,
                          t.gather_ns, t.gemm_ns, t.scatter_ns, t.exec_other_ns,
                          t.stream_wait_ns}) {
    EXPECT_GE(segment, 0);
  }
}

// Microsecond inputs enter the serving clock through NsFromUs.
TEST(ReqTraceNsTest, QuantisesToIntegerNanoseconds) {
  EXPECT_EQ(NsFromUs(0.0), 0);
  EXPECT_EQ(NsFromUs(1.5), 1500);
  EXPECT_EQ(NsFromUs(0.0004), 0);   // rounds, does not truncate
  EXPECT_EQ(NsFromUs(0.0006), 1);
  // Monotone over a jagged ascending sequence: quantised boundaries never
  // reorder events.
  double t = 0.0;
  int64_t prev = NsFromUs(t);
  for (int i = 0; i < 1000; ++i) {
    t += 0.0101 * (1 + i % 7);
    int64_t now = NsFromUs(t);
    EXPECT_GE(now, prev);
    prev = now;
  }
  // Reporting edges round-trip: NsToUs loses no nanosecond.
  for (int64_t ns : {int64_t{0}, int64_t{1}, int64_t{999}, int64_t{771509814},
                     int64_t{123456789012345}}) {
    EXPECT_EQ(NsFromUs(NsToUs(ns)), ns);
  }
}

TEST(ReqTraceRecorderTest, BusyIntegralTracksClosedAndPartialFlights) {
  ReqTraceRecorder rec;
  rec.Reset(2);
  EXPECT_EQ(rec.BusyIntegral(0, 50000), 0);

  rec.BeginBatch(0, 100000);
  // Mid-flight: the partial interval counts up to the query time.
  EXPECT_EQ(rec.BusyIntegral(0, 150000), 50000);
  rec.EndBatch(0, 200000);
  EXPECT_EQ(rec.BusyIntegral(0, 300000), 100000);

  rec.BeginBatch(0, 400000);
  EXPECT_EQ(rec.BusyIntegral(0, 450000), 150000);
  rec.EndBatch(0, 460000);
  EXPECT_EQ(rec.BusyIntegral(0, 500000), 160000);

  // Device 1 never ran anything.
  EXPECT_EQ(rec.BusyIntegral(1, 500000), 0);
}

TEST(ReqTraceRecorderTest, SplitsQueueIntoServerWaitAndBatchDelay) {
  // A dispatches alone at arrival and flies [0, 100]. B arrives at 50 —
  // mid-flight — but is held until 150: 50 µs of its queue is the replica
  // being busy with A (server wait), the other 50 µs is the batcher holding
  // it while the replica sat idle (batch delay).
  ReqTraceRecorder rec;
  rec.Reset(1);

  rec.AdmitRequest(0, 1, 0);
  PhaseTrace a = rec.FinalizeRequest(0, 1, 0, 0, 100000, 100000, SomeCycles());
  rec.BeginBatch(0, 0);
  rec.AdmitRequest(0, 2, 50000);
  rec.EndBatch(0, 100000);
  PhaseTrace b = rec.FinalizeRequest(0, 2, 50000, 150000, 250000, 100000, SomeCycles());

  ExpectCoherent(a);
  EXPECT_EQ(a.queue_ns, 0);
  EXPECT_EQ(a.server_wait_ns, 0);
  EXPECT_EQ(a.batch_delay_ns, 0);
  EXPECT_EQ(a.e2e_ns, 100000);

  ExpectCoherent(b);
  EXPECT_EQ(b.queue_ns, 100000);
  EXPECT_EQ(b.server_wait_ns, 50000);
  EXPECT_EQ(b.batch_delay_ns, 50000);
  EXPECT_EQ(b.e2e_ns, 200000);
}

TEST(ReqTraceRecorderTest, SameInstantDispatchHasZeroQueueSegments) {
  // Arrival, dispatch, and a prior batch completion all at the same clock
  // instant: the event order (completion, then arrival, then dispatch)
  // guarantees the busy integral is closed, so every queue segment is 0.
  ReqTraceRecorder rec;
  rec.Reset(1);
  rec.BeginBatch(0, 0);
  rec.EndBatch(0, 75000);
  rec.AdmitRequest(0, 7, 75000);
  PhaseTrace t = rec.FinalizeRequest(0, 7, 75000, 75000, 135000, 60000, SomeCycles());
  ExpectCoherent(t);
  EXPECT_EQ(t.queue_ns, 0);
  EXPECT_EQ(t.server_wait_ns, 0);
  EXPECT_EQ(t.batch_delay_ns, 0);
  EXPECT_EQ(t.e2e_ns, t.service_ns);
}

TEST(ReqTraceRecorderTest, ExecSplitSumsExactlyUnderAwkwardRounding) {
  // 1 µs of execution over cycle weights that do not divide it evenly: the
  // cumulative-boundary quantisation must still make the five phase segments
  // sum to exec_ns exactly.
  ReqTraceRecorder rec;
  rec.Reset(1);
  ExecPhaseCycles c;
  c.map = 1.0;
  c.gather = 1.0;
  c.gemm = 1.0;
  c.scatter = 1.0;
  c.other = 3.0;
  rec.AdmitRequest(0, 1, 0);
  PhaseTrace t = rec.FinalizeRequest(0, 1, 0, 0, 1000, 1000, c);
  ExpectCoherent(t);
  EXPECT_EQ(t.map_ns + t.gather_ns + t.gemm_ns + t.scatter_ns + t.exec_other_ns, t.exec_ns);
  // 3/7 of the total lands in "other" — the proportional split is real, not
  // a dump of the remainder into one bucket.
  EXPECT_GT(t.exec_other_ns, t.map_ns);
}

TEST(ReqTraceRecorderTest, ZeroCycleBreakdownFallsBackToExecOther) {
  ReqTraceRecorder rec;
  rec.Reset(1);
  rec.AdmitRequest(0, 1, 0);
  PhaseTrace t = rec.FinalizeRequest(0, 1, 0, 0, 40000, 40000, ExecPhaseCycles{});
  ExpectCoherent(t);
  EXPECT_EQ(t.map_ns, 0);
  EXPECT_EQ(t.gather_ns, 0);
  EXPECT_EQ(t.gemm_ns, 0);
  EXPECT_EQ(t.scatter_ns, 0);
  EXPECT_EQ(t.exec_other_ns, t.exec_ns);
}

TEST(ReqTraceRecorderTest, StreamWaitAbsorbsBatchMakespanBeyondOwnExecution) {
  // A short batch member finishes its own work early but occupies the server
  // until the batch's makespan ends: the residual is stream wait.
  ReqTraceRecorder rec;
  rec.Reset(1);
  rec.AdmitRequest(0, 1, 0);
  PhaseTrace t = rec.FinalizeRequest(0, 1, 0, 10000, 210000, 80000, SomeCycles());
  ExpectCoherent(t);
  EXPECT_EQ(t.exec_ns, 80000);
  EXPECT_EQ(t.stream_wait_ns, 120000);
  EXPECT_EQ(t.service_ns, 200000);
}

TEST(ReqTraceFleetTest, EveryCompletedRequestObeysTheSegmentSumInvariant) {
  // A saturated 2-replica fleet with tight queues: sheds, multi-member
  // batches, warm and cold plans. Every completed record's segments must sum
  // to its e2e latency, which in turn must equal the clock span.
  auto e0 = NewEngine(MakeRtx3090());
  auto e1 = NewEngine(MakeA100());
  TraceConfig arrival;
  arrival.process = ArrivalProcess::kPoisson;
  arrival.rate_rps = 20000.0;
  arrival.num_requests = 60;
  arrival.seed = 31;
  FleetConfig config;
  config.routing = RoutingPolicy::kLeastLoaded;
  config.scheduler.queue_capacity = 2;
  config.scheduler.max_batch_size = 2;
  FleetScheduler fleet({e0.get(), e1.get()}, config);
  FleetResult result = fleet.Run(arrival);

  int64_t completed = 0, shed = 0;
  for (const RequestRecord& record : result.requests) {
    const PhaseTrace& t = record.trace;
    if (record.shed) {
      ++shed;
      EXPECT_EQ(t.SegmentSum(), 0);
      EXPECT_EQ(t.e2e_ns, 0);
      continue;
    }
    ++completed;
    ExpectCoherent(t);
    EXPECT_EQ(t.e2e_ns, record.completion_ns - record.arrival_ns);
    EXPECT_EQ(t.queue_ns, record.dispatch_ns - record.arrival_ns);
    EXPECT_EQ(t.service_ns, record.completion_ns - record.dispatch_ns);
  }
  // The workload actually exercised both sides of the invariant.
  EXPECT_GT(completed, 0);
  EXPECT_GT(shed, 0);
}

TEST(ReqTraceFleetTest, ZeroCapacityAllShedRunKeepsTracesZero) {
  auto engine = NewEngine(MakeRtx3090());
  FleetConfig config;
  config.scheduler.queue_capacity = 0;
  FleetScheduler fleet({engine.get()}, config);
  FleetResult result = fleet.Run({Req(0, 0.0), Req(1, 0.0), Req(2, 0.0)});
  ASSERT_EQ(result.requests.size(), 3u);
  for (const RequestRecord& record : result.requests) {
    EXPECT_TRUE(record.shed);
    EXPECT_EQ(record.trace.SegmentSum(), 0);
    EXPECT_EQ(record.trace.e2e_ns, 0);
  }
  // The dump still renders: a header counting 3 requests, all flagged shed.
  std::string dump = RequestDumpJsonl(result.requests, config.scheduler.slo_us);
  std::vector<JsonValue> lines;
  std::string error;
  ASSERT_TRUE(ParseJsonLines(dump, &lines, &error)) << error;
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_DOUBLE_EQ(lines[0].Find("requests")->AsDouble(), 3.0);
  for (size_t i = 1; i < lines.size(); ++i) {
    EXPECT_TRUE(lines[i].Find("shed")->AsBool());
    EXPECT_DOUBLE_EQ(lines[i].Find("e2e_ns")->AsDouble(), 0.0);
  }
}

TEST(ReqTraceDumpTest, RoundTripsEveryFieldThroughTheJsonReader) {
  auto engine = NewEngine(MakeRtx3090());
  FleetConfig config;
  config.scheduler.queue_capacity = 4;
  config.scheduler.max_batch_size = 2;
  FleetScheduler fleet({engine.get()}, config);
  FleetResult result =
      fleet.Run({Req(0, 0.0), Req(1, 10.0), Req(2, 10000.0), Req(3, 10010.0)});

  std::string dump = RequestDumpJsonl(result.requests, 4321.0);
  std::vector<JsonValue> lines;
  std::string error;
  ASSERT_TRUE(ParseJsonLines(dump, &lines, &error)) << error;
  ASSERT_EQ(lines.size(), result.requests.size() + 1);
  EXPECT_DOUBLE_EQ(lines[0].Find("request_dump")->AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(lines[0].Find("slo_us")->AsDouble(), 4321.0);

  for (size_t i = 0; i < result.requests.size(); ++i) {
    const RequestRecord& record = result.requests[i];
    const JsonValue& line = lines[i + 1];
    EXPECT_DOUBLE_EQ(line.Find("id")->AsDouble(),
                     static_cast<double>(record.request.id));
    EXPECT_DOUBLE_EQ(line.Find("arrival_us")->AsDouble(), record.request.arrival_us);
    EXPECT_DOUBLE_EQ(line.Find("device")->AsDouble(), static_cast<double>(record.device));
    EXPECT_EQ(line.Find("shed")->AsBool(), record.shed);
    EXPECT_DOUBLE_EQ(line.Find("e2e_ns")->AsDouble(),
                     static_cast<double>(record.trace.e2e_ns));
    EXPECT_DOUBLE_EQ(line.Find("server_wait_ns")->AsDouble(),
                     static_cast<double>(record.trace.server_wait_ns));
    EXPECT_DOUBLE_EQ(line.Find("batch_delay_ns")->AsDouble(),
                     static_cast<double>(record.trace.batch_delay_ns));
    EXPECT_DOUBLE_EQ(line.Find("gemm_ns")->AsDouble(),
                     static_cast<double>(record.trace.gemm_ns));
    EXPECT_DOUBLE_EQ(line.Find("stream_wait_ns")->AsDouble(),
                     static_cast<double>(record.trace.stream_wait_ns));
  }
}

TEST(ReqTraceDumpTest, WarmedReplayProducesByteIdenticalDumps) {
  // The in-process half of the CI byte-compare gate: once the fleet is warm,
  // two replays of the same arrival trace must render byte-identical dumps.
  auto e0 = NewEngine(MakeRtx3090());
  auto e1 = NewEngine(MakeA100());
  TraceConfig arrival;
  arrival.process = ArrivalProcess::kPoisson;
  arrival.rate_rps = 15000.0;
  arrival.num_requests = 30;
  arrival.seed = 17;
  FleetConfig config;
  config.routing = RoutingPolicy::kLeastLoaded;
  config.scheduler.queue_capacity = 4;
  config.scheduler.max_batch_size = 2;
  FleetScheduler fleet({e0.get(), e1.get()}, config);
  // Warm up until a pass records no new plans or slabs (see fleet_test for
  // why one pass is not enough on a fleet).
  bool converged = false;
  for (int pass = 0; pass < 8 && !converged; ++pass) {
    uint64_t misses = 0, allocations = 0;
    for (size_t k = 0; k < fleet.num_replicas(); ++k) {
      const SessionStats& stats = fleet.replica(k).session().stats();
      misses += stats.plan.misses;
      allocations += stats.pool.allocations;
    }
    fleet.Run(arrival);
    uint64_t misses_after = 0, allocations_after = 0;
    for (size_t k = 0; k < fleet.num_replicas(); ++k) {
      const SessionStats& stats = fleet.replica(k).session().stats();
      misses_after += stats.plan.misses;
      allocations_after += stats.pool.allocations;
    }
    converged = misses_after == misses && allocations_after == allocations;
  }
  ASSERT_TRUE(converged) << "fleet state still changing after 8 warm-up passes";

  std::string a = RequestDumpJsonl(fleet.Run(arrival).requests, 1000.0);
  std::string b = RequestDumpJsonl(fleet.Run(arrival).requests, 1000.0);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 0u);
}

}  // namespace
}  // namespace serve
}  // namespace minuet
