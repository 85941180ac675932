// Serving scheduler: batcher and overlap-model units, admission edge cases
// (empty trace, burst shedding, zero capacity), policy ordering, dynamic
// batching, closed-loop clients, and two-run bit-determinism — on a
// single-device deployment, which is a FleetScheduler of one replica.
#include "src/serve/scheduler.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"
#include "src/serve/arrival.h"
#include "src/serve/fleet.h"
#include "src/serve/request.h"

namespace minuet {
namespace serve {
namespace {

Request Req(int64_t id, double arrival_us, int64_t points = 300, int priority = 0,
            int batch_class = 0) {
  Request r;
  r.id = id;
  r.arrival_us = arrival_us;
  r.points = points;
  r.priority = priority;
  r.batch_class = batch_class;
  r.dataset = DatasetKind::kRandom;
  r.cloud_seed = 5;
  return r;
}

// --- batcher and overlap model (no engine) --------------------------------

std::vector<QueueEntry> Entries(const std::vector<Request>& requests) {
  std::vector<QueueEntry> entries;
  for (size_t i = 0; i < requests.size(); ++i) {
    entries.push_back({&requests[i], static_cast<int64_t>(i)});
  }
  return entries;
}

TEST(PickBatchTest, FifoKeepsAdmissionOrder) {
  std::vector<Request> reqs = {Req(0, 0.0, 900), Req(1, 0.0, 100), Req(2, 0.0, 500)};
  std::vector<size_t> batch = PickBatch(Entries(reqs), AdmissionPolicy::kFifo, 2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 0u);
  EXPECT_EQ(batch[1], 1u);
}

TEST(PickBatchTest, SjfPicksShortestFirst) {
  std::vector<Request> reqs = {Req(0, 0.0, 900), Req(1, 0.0, 100), Req(2, 0.0, 500)};
  std::vector<size_t> batch = PickBatch(Entries(reqs), AdmissionPolicy::kSjf, 3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], 1u);
  EXPECT_EQ(batch[1], 2u);
  EXPECT_EQ(batch[2], 0u);
}

TEST(PickBatchTest, PriorityOrdersUrgentFirstFifoWithin) {
  std::vector<Request> reqs = {Req(0, 0.0, 300, /*priority=*/1), Req(1, 0.0, 300, 0),
                               Req(2, 0.0, 300, 1), Req(3, 0.0, 300, 0)};
  std::vector<size_t> batch = PickBatch(Entries(reqs), AdmissionPolicy::kPriority, 4);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0], 1u);
  EXPECT_EQ(batch[1], 3u);
  EXPECT_EQ(batch[2], 0u);
  EXPECT_EQ(batch[3], 2u);
}

TEST(PickBatchTest, OnlyHeadsBatchClassJoins) {
  std::vector<Request> reqs = {Req(0, 0.0, 300, 0, /*batch_class=*/7),
                               Req(1, 0.0, 300, 0, /*batch_class=*/8),
                               Req(2, 0.0, 300, 0, /*batch_class=*/7)};
  std::vector<size_t> batch = PickBatch(Entries(reqs), AdmissionPolicy::kFifo, 4);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 0u);
  EXPECT_EQ(batch[1], 2u);
}

TEST(PickBatchTest, EmptyQueueEmptyBatch) {
  EXPECT_TRUE(PickBatch({}, AdmissionPolicy::kFifo, 4).empty());
}

TEST(BatchServiceCyclesTest, OverlapModel) {
  EXPECT_DOUBLE_EQ(BatchServiceCycles({42.0}, 4), 42.0);
  // Balanced batch within the pool: critical path dominates.
  EXPECT_DOUBLE_EQ(BatchServiceCycles({100.0, 100.0, 100.0, 100.0}, 4), 100.0);
  // More members than streams: throughput term dominates.
  EXPECT_DOUBLE_EQ(BatchServiceCycles({100.0, 100.0, 100.0}, 2), 150.0);
  // One giant member: the batch can never beat its critical request.
  EXPECT_DOUBLE_EQ(BatchServiceCycles({1000.0, 10.0, 10.0}, 4), 1000.0);
  EXPECT_DOUBLE_EQ(BatchServiceCycles({}, 4), 0.0);
}

// --- scheduler integration -------------------------------------------------

class SchedulerTest : public ::testing::Test {
 protected:
  std::unique_ptr<Engine> NewEngine() {
    EngineConfig config;
    config.functional = false;
    auto engine = std::make_unique<Engine>(config, MakeRtx3090());
    engine->Prepare(MakeTinyUNet(4), 1);
    return engine;
  }
};

// A single-device deployment: a fleet of one replica.
FleetConfig OneDevice(const SchedulerConfig& config) {
  FleetConfig fleet;
  fleet.scheduler = config;
  return fleet;
}

TEST_F(SchedulerTest, EmptyTrace) {
  auto engine = NewEngine();
  FleetScheduler scheduler({engine.get()}, OneDevice(SchedulerConfig{}));
  FleetResult result = scheduler.Run(std::vector<Request>{});
  EXPECT_EQ(result.summary.fleet.offered, 0);
  EXPECT_EQ(result.summary.fleet.completed, 0);
  EXPECT_EQ(result.summary.fleet.shed, 0);
  EXPECT_TRUE(result.requests.empty());
  EXPECT_TRUE(result.batches.empty());
  EXPECT_DOUBLE_EQ(result.summary.fleet.duration_us, 0.0);
}

TEST_F(SchedulerTest, SingleRequestDispatchesImmediately) {
  auto engine = NewEngine();
  FleetScheduler scheduler({engine.get()}, OneDevice(SchedulerConfig{}));
  FleetResult result = scheduler.Run({Req(0, 0.0)});
  ASSERT_EQ(result.requests.size(), 1u);
  const RequestRecord& record = result.requests[0];
  EXPECT_FALSE(record.shed);
  EXPECT_FALSE(record.warm);  // first sight of the cloud records the plan
  // No other arrival can top the batch up, so dispatch is immediate.
  EXPECT_EQ(record.dispatch_ns, 0);
  EXPECT_GT(record.completion_ns, 0);
  EXPECT_EQ(result.summary.fleet.completed, 1);
  EXPECT_EQ(result.summary.fleet.num_batches, 1);
  EXPECT_EQ(result.summary.fleet.duration_us, NsToUs(record.completion_ns));
}

TEST_F(SchedulerTest, BurstBeyondQueueShedsExactlyTheOverflow) {
  const int64_t n = 12;
  const int64_t capacity = 5;
  auto engine = NewEngine();
  SchedulerConfig config;
  config.queue_capacity = capacity;
  FleetScheduler scheduler({engine.get()}, OneDevice(config));
  // All n arrive at the same instant; arrivals drain before any dispatch, so
  // the queue holds exactly `capacity` and sheds the rest.
  std::vector<Request> burst;
  for (int64_t i = 0; i < n; ++i) {
    burst.push_back(Req(i, 0.0));
  }
  FleetResult result = scheduler.Run(burst);
  EXPECT_EQ(result.summary.fleet.offered, n);
  EXPECT_EQ(result.summary.fleet.shed, n - capacity);
  EXPECT_EQ(result.summary.fleet.admitted, capacity);
  EXPECT_EQ(result.summary.fleet.completed, capacity);
  EXPECT_DOUBLE_EQ(result.summary.fleet.shed_rate,
                   static_cast<double>(n - capacity) / static_cast<double>(n));
}

TEST_F(SchedulerTest, ZeroCapacityShedsEverything) {
  auto engine = NewEngine();
  SchedulerConfig config;
  config.queue_capacity = 0;
  FleetScheduler scheduler({engine.get()}, OneDevice(config));
  FleetResult result = scheduler.Run({Req(0, 0.0), Req(1, 10.0), Req(2, 20.0)});
  EXPECT_EQ(result.summary.fleet.offered, 3);
  EXPECT_EQ(result.summary.fleet.shed, 3);
  EXPECT_EQ(result.summary.fleet.completed, 0);
  EXPECT_EQ(result.summary.fleet.num_batches, 0);
  EXPECT_DOUBLE_EQ(result.summary.fleet.shed_rate, 1.0);
  for (const RequestRecord& record : result.requests) {
    EXPECT_TRUE(record.shed);
  }
}

TEST_F(SchedulerTest, PartialBatchWaitsOutMaxQueueDelay) {
  auto engine = NewEngine();
  SchedulerConfig config;
  config.max_batch_size = 4;
  config.max_queue_delay_us = 2000.0;
  FleetScheduler scheduler({engine.get()}, OneDevice(config));
  // A second arrival far in the future keeps the batch-fill hope alive, so
  // the first request dispatches exactly when its delay timer expires.
  FleetResult result = scheduler.Run({Req(0, 0.0), Req(1, 500000.0)});
  ASSERT_EQ(result.requests.size(), 2u);
  EXPECT_EQ(result.requests[0].dispatch_ns, 2000000);
  EXPECT_EQ(result.summary.fleet.num_batches, 2);
}

TEST_F(SchedulerTest, ExpiredTimerBatchIsFrozenAgainstSameInstantArrivals) {
  auto engine = NewEngine();
  SchedulerConfig config;
  config.max_batch_size = 4;
  config.max_queue_delay_us = 1000.0;
  FleetScheduler scheduler({engine.get()}, OneDevice(config));
  // r0's delay timer expires at exactly t=1000 — the same instant r1 arrives.
  // Event order at equal timestamps is completions, then arrivals, then
  // dispatches: r1 is admitted before the dispatch fires, but the expired
  // timer froze its batch at the firing instant, so r1 must NOT jump into the
  // departing batch (it would retroactively ride a batch whose timer already
  // ran out). The far-future r2 keeps batch-fill hope alive so neither r0 nor
  // r1 dispatches early. Golden sequence: r0 alone at 1000, r1 later.
  FleetResult result = scheduler.Run({Req(0, 0.0), Req(1, 1000.0), Req(2, 500000.0)});
  ASSERT_EQ(result.requests.size(), 3u);
  EXPECT_EQ(result.requests[0].dispatch_ns, 1000000);
  ASSERT_GE(result.batches.size(), 2u);
  EXPECT_EQ(result.batches[0].size, 1);
  EXPECT_NE(result.requests[1].batch_id, result.requests[0].batch_id);
  // r1 waits out its own timer (2000) or until the server frees up.
  EXPECT_GE(result.requests[1].dispatch_ns, 2000000);
  EXPECT_EQ(result.summary.fleet.completed, 3);
}

TEST_F(SchedulerTest, ZeroQueueDelayStillDispatchesSameInstantBatches) {
  auto engine = NewEngine();
  SchedulerConfig config;
  config.max_batch_size = 4;
  config.max_queue_delay_us = 0.0;  // timer expires the instant work queues
  FleetScheduler scheduler({engine.get()}, OneDevice(config));
  // With zero delay the timer "fires" at the oldest arrival itself; the
  // frozen-batch rule must fall back to the unfiltered queue (nothing arrived
  // strictly before t=0), not dispatch an empty batch or stall forever.
  FleetResult result = scheduler.Run({Req(0, 0.0), Req(1, 0.0)});
  ASSERT_EQ(result.requests.size(), 2u);
  EXPECT_EQ(result.summary.fleet.completed, 2);
  ASSERT_EQ(result.batches.size(), 1u);
  EXPECT_EQ(result.batches[0].size, 2);
  EXPECT_EQ(result.batches[0].dispatch_ns, 0);
}

TEST_F(SchedulerTest, FullBatchOverlapsOnTheStreamPool) {
  auto engine = NewEngine();
  SchedulerConfig config;
  config.max_batch_size = 4;
  FleetScheduler scheduler({engine.get()}, OneDevice(config));
  std::vector<Request> burst;
  for (int64_t i = 0; i < 4; ++i) {
    burst.push_back(Req(i, 0.0));
  }
  FleetResult result = scheduler.Run(burst);
  ASSERT_EQ(result.batches.size(), 1u);
  const BatchRecord& batch = result.batches[0];
  EXPECT_EQ(batch.size, 4);
  // Members overlap: the batch costs less than running them back-to-back,
  // but never less than its critical member.
  EXPECT_LT(batch.service_cycles, batch.serial_cycles);
  EXPECT_GT(batch.Overlap(), 1.0);
  double critical = 0.0;
  for (const RequestRecord& record : result.requests) {
    critical = std::max(critical, record.service_cycles);
    EXPECT_EQ(record.batch_id, batch.id);
    // The whole batch completes together.
    EXPECT_EQ(record.completion_ns, batch.completion_ns);
  }
  EXPECT_GE(batch.service_cycles, critical);
}

TEST_F(SchedulerTest, PriorityPolicyServesUrgentFirst) {
  auto engine = NewEngine();
  SchedulerConfig config;
  config.policy = AdmissionPolicy::kPriority;
  config.max_batch_size = 1;
  FleetScheduler scheduler({engine.get()}, OneDevice(config));
  FleetResult result = scheduler.Run({Req(0, 0.0, 300, /*priority=*/1), Req(1, 0.0, 300, 0),
                                      Req(2, 0.0, 300, 1), Req(3, 0.0, 300, 0)});
  ASSERT_EQ(result.requests.size(), 4u);
  // Priority-0 requests (ids 1, 3) dispatch before every priority-1 request.
  EXPECT_LT(result.requests[1].dispatch_ns, result.requests[0].dispatch_ns);
  EXPECT_LT(result.requests[3].dispatch_ns, result.requests[0].dispatch_ns);
  EXPECT_LT(result.requests[1].dispatch_ns, result.requests[2].dispatch_ns);
  EXPECT_LT(result.requests[3].dispatch_ns, result.requests[2].dispatch_ns);
}

TEST_F(SchedulerTest, SjfPolicyServesSmallRequestsFirst) {
  auto engine = NewEngine();
  SchedulerConfig config;
  config.policy = AdmissionPolicy::kSjf;
  config.max_batch_size = 1;
  FleetScheduler scheduler({engine.get()}, OneDevice(config));
  FleetResult result = scheduler.Run({Req(0, 0.0, 900), Req(1, 0.0, 150)});
  ASSERT_EQ(result.requests.size(), 2u);
  EXPECT_LT(result.requests[1].dispatch_ns, result.requests[0].dispatch_ns);
}

TEST_F(SchedulerTest, RepeatedShapeServedWarm) {
  auto engine = NewEngine();
  FleetScheduler scheduler({engine.get()}, OneDevice(SchedulerConfig{}));
  // Far enough apart that the second request cannot batch with the first.
  FleetResult result = scheduler.Run({Req(0, 0.0), Req(1, 1e6)});
  ASSERT_EQ(result.requests.size(), 2u);
  EXPECT_FALSE(result.requests[0].warm);
  EXPECT_TRUE(result.requests[1].warm);
  EXPECT_EQ(result.summary.fleet.warm_requests, 1);
  // Warm replay skips the Map step, so it is strictly cheaper.
  EXPECT_LT(result.requests[1].service_cycles, result.requests[0].service_cycles);
}

// Every per-request and per-batch record of two serve runs, compared exactly.
void ExpectIdenticalRecords(const FleetResult& a, const FleetResult& b) {
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].request.id, b.requests[i].request.id);
    EXPECT_EQ(a.requests[i].shed, b.requests[i].shed);
    EXPECT_EQ(a.requests[i].batch_id, b.requests[i].batch_id);
    EXPECT_EQ(a.requests[i].dispatch_ns, b.requests[i].dispatch_ns);
    EXPECT_EQ(a.requests[i].completion_ns, b.requests[i].completion_ns);
    EXPECT_EQ(a.requests[i].service_cycles, b.requests[i].service_cycles);
  }
  ASSERT_EQ(a.batches.size(), b.batches.size());
  for (size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].size, b.batches[i].size);
    EXPECT_EQ(a.batches[i].batch_class, b.batches[i].batch_class);
    EXPECT_EQ(a.batches[i].dispatch_ns, b.batches[i].dispatch_ns);
    EXPECT_EQ(a.batches[i].service_cycles, b.batches[i].service_cycles);
  }
  EXPECT_EQ(a.summary.fleet.latency_p99_us, b.summary.fleet.latency_p99_us);
  EXPECT_EQ(a.summary.fleet.goodput_rps, b.summary.fleet.goodput_rps);
}

TraceConfig SaturatingTrace() {
  TraceConfig arrival;
  arrival.process = ArrivalProcess::kPoisson;
  arrival.rate_rps = 20000.0;  // well past saturation: queueing + batching
  arrival.num_requests = 30;
  arrival.seed = 13;
  return arrival;
}

TEST_F(SchedulerTest, WarmRunsAreBitIdentical) {
  SchedulerConfig config;
  config.queue_capacity = 8;
  config.max_batch_size = 4;

  // One long-lived deployment replaying the same trace: after the first pass
  // absorbs the cold plan recordings (and populates the workspace pool),
  // every replay is bit-identical — per-request latencies, shed decisions and
  // batch compositions. Plans cache the metadata tables and the workspace
  // pool hands the same request the same slab every replay (oldest-first slab
  // selection by birth order), so the cache simulator sees the same device
  // addresses, and the same access stream, each pass.
  auto engine = NewEngine();
  FleetScheduler scheduler({engine.get()}, OneDevice(config));
  scheduler.Run(SaturatingTrace());  // warm-up pass: record plans, populate the pool
  const uint64_t warm_footprint = engine->device().memory()->high_water();
  FleetResult a = scheduler.Run(SaturatingTrace());
  FleetResult b = scheduler.Run(SaturatingTrace());
  // Warm replays place nothing beyond the warm-up's device footprint.
  EXPECT_EQ(engine->device().memory()->high_water(), warm_footprint);
  ExpectIdenticalRecords(a, b);
}

TEST_F(SchedulerTest, FreshEnginesInOneProcessServeIdentically) {
  // Each engine's device has its own address space, so two fresh engines
  // serving the same trace see identical device addresses — whatever the host
  // heap did in between — and produce identical records, cold runs included.
  SchedulerConfig config;
  config.queue_capacity = 8;
  config.max_batch_size = 4;
  auto first = NewEngine();
  FleetResult a = FleetScheduler({first.get()}, OneDevice(config)).Run(SaturatingTrace());
  std::vector<std::unique_ptr<char[]>> ballast;
  for (size_t bytes : {16, 3000, 70000}) {
    ballast.push_back(std::make_unique<char[]>(bytes));
  }
  auto second = NewEngine();
  FleetResult b = FleetScheduler({second.get()}, OneDevice(config)).Run(SaturatingTrace());
  ExpectIdenticalRecords(a, b);
}

TEST_F(SchedulerTest, ClosedLoopIssuesFromClients) {
  auto engine = NewEngine();
  SchedulerConfig config;
  config.seed = 3;
  FleetScheduler scheduler({engine.get()}, OneDevice(config));

  TraceConfig closed;
  closed.process = ArrivalProcess::kClosedLoop;
  closed.num_requests = 12;
  closed.num_clients = 3;
  closed.think_time_us = 500.0;
  FleetResult result = scheduler.Run(closed);

  EXPECT_EQ(result.summary.fleet.offered, 12);
  // Closed loops self-limit to num_clients outstanding: nothing sheds under
  // the default queue capacity.
  EXPECT_EQ(result.summary.fleet.shed, 0);
  EXPECT_EQ(result.summary.fleet.completed, 12);
  for (const RequestRecord& record : result.requests) {
    EXPECT_GE(record.request.client, 0);
    EXPECT_LT(record.request.client, 3);
  }
}

// --- Summarize accounting (no engine) --------------------------------------

TEST(SummarizeTest, CountsSloAndRates) {
  SchedulerConfig config;
  config.slo_us = 100.0;
  std::vector<RequestRecord> records(3);
  // Within SLO.
  records[0].request = Req(0, 0.0);
  records[0].dispatch_ns = 10000;
  records[0].completion_ns = 60000;
  // Misses SLO (latency 400 us).
  records[1].request = Req(1, 100.0);
  records[1].arrival_ns = 100000;
  records[1].dispatch_ns = 300000;
  records[1].completion_ns = 500000;
  // Shed.
  records[2].request = Req(2, 200.0);
  records[2].arrival_ns = 200000;
  records[2].shed = true;

  BatchRecord batch;
  batch.size = 2;
  batch.dispatch_ns = 10000;
  batch.completion_ns = 60000;

  ServeSummary s = Summarize(records, {batch}, config);
  EXPECT_EQ(s.offered, 3);
  EXPECT_EQ(s.admitted, 2);
  EXPECT_EQ(s.shed, 1);
  EXPECT_EQ(s.completed, 2);
  EXPECT_DOUBLE_EQ(s.duration_us, 500.0);
  EXPECT_DOUBLE_EQ(s.slo_attainment, 0.5);
  EXPECT_DOUBLE_EQ(s.throughput_rps, 2.0 / 500e-6);
  EXPECT_DOUBLE_EQ(s.goodput_rps, 1.0 / 500e-6);
  EXPECT_DOUBLE_EQ(s.shed_rate, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.mean_batch_size, 2.0);
  EXPECT_DOUBLE_EQ(s.server_busy_us, 50.0);
  EXPECT_DOUBLE_EQ(s.utilization, 50.0 / 500.0);
}

}  // namespace
}  // namespace serve
}  // namespace minuet
