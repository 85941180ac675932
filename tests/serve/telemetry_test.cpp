// ServeTelemetry wired into the fleet loop: byte-identical timelines, alert
// sequences, and incident dumps across replays; telemetry leaves every
// simulated statistic untouched; counter totals reconcile with the run
// summary; and a cooperative stop drains into a valid, accounted run.
#include "src/serve/telemetry.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"
#include "src/serve/fleet.h"
#include "src/serve/health.h"
#include "src/serve/request.h"
#include "src/serve/scheduler.h"
#include "src/util/json_reader.h"

namespace minuet {
namespace serve {
namespace {

Request Req(int64_t id, double arrival_us, int64_t points = 300) {
  Request r;
  r.id = id;
  r.arrival_us = arrival_us;
  r.points = points;
  r.dataset = DatasetKind::kRandom;
  r.cloud_seed = 5;
  return r;
}

std::unique_ptr<Engine> NewEngine(const DeviceConfig& device) {
  EngineConfig config;
  config.functional = false;
  auto engine = std::make_unique<Engine>(config, device);
  engine->Prepare(MakeTinyUNet(4), 1);
  return engine;
}

// Arrivals at ~1.4x the two-replica drain rate with tiny queues: sheds,
// saturated windows, and burn alerts are all on the path.
std::vector<Request> OverloadTrace(int n = 40) {
  std::vector<Request> requests;
  requests.reserve(n);
  for (int i = 0; i < n; ++i) {
    requests.push_back(Req(i, 120.0 * i));
  }
  return requests;
}

FleetConfig OverloadConfig() {
  FleetConfig config;
  config.routing = RoutingPolicy::kLeastLoaded;
  config.scheduler.queue_capacity = 2;
  config.scheduler.max_batch_size = 2;
  config.scheduler.max_queue_delay_us = 200.0;
  config.scheduler.slo_us = 2500.0;
  return config;
}

// Warm the fleet until a whole pass records no new plans and allocates no new
// slabs (the fleet_test replay recipe): only then does every pass start from
// the same device memory state, so replays byte-compare.
void WarmUntilConverged(FleetScheduler& fleet, const std::vector<Request>& trace) {
  bool converged = false;
  for (int pass = 0; pass < 8 && !converged; ++pass) {
    uint64_t misses = 0, allocations = 0;
    for (size_t k = 0; k < fleet.num_replicas(); ++k) {
      const SessionStats& stats = fleet.replica(k).session().stats();
      misses += stats.plan.misses;
      allocations += stats.pool.allocations;
    }
    fleet.Run(trace);
    uint64_t misses_after = 0, allocations_after = 0;
    for (size_t k = 0; k < fleet.num_replicas(); ++k) {
      const SessionStats& stats = fleet.replica(k).session().stats();
      misses_after += stats.plan.misses;
      allocations_after += stats.pool.allocations;
    }
    converged = misses == misses_after && allocations == allocations_after;
  }
  ASSERT_TRUE(converged);
}

struct TelemetryRun {
  FleetResult result;
  std::string timeline;
  std::string incident;
  std::vector<AlertEvent> alerts;
  std::map<std::string, double> totals;
};

// One warmed-fleet run with a fresh telemetry instance attached (telemetry is
// one-run-per-instance, so replays reattach).
TelemetryRun RunWithTelemetry(FleetScheduler& fleet, const std::vector<Request>& trace,
                              bool stop_before_run = false) {
  TelemetryConfig tcfg;
  tcfg.interval_us = 500.0;
  ServeTelemetry telemetry(tcfg);
  if (stop_before_run) {
    telemetry.RequestStop();
  }
  fleet.AttachTelemetry(&telemetry);
  TelemetryRun run;
  run.result = fleet.Run(trace);
  fleet.AttachTelemetry(nullptr);
  run.timeline = telemetry.series().TimelineJsonl();
  run.incident = telemetry.incident_json();
  run.alerts = telemetry.alerts();
  run.totals = telemetry.series().CounterTotals();
  return run;
}

TEST(ServeTelemetryTest, ReplaysAreByteIdentical) {
  auto a = NewEngine(MakeRtx3090());
  auto b = NewEngine(MakeA100());
  FleetScheduler fleet({a.get(), b.get()}, OverloadConfig());
  const std::vector<Request> trace = OverloadTrace();
  WarmUntilConverged(fleet, trace);

  TelemetryRun first = RunWithTelemetry(fleet, trace);
  TelemetryRun second = RunWithTelemetry(fleet, trace);

  EXPECT_FALSE(first.timeline.empty());
  EXPECT_EQ(first.timeline, second.timeline);
  EXPECT_EQ(first.incident, second.incident);
  ASSERT_EQ(first.alerts.size(), second.alerts.size());
  for (size_t i = 0; i < first.alerts.size(); ++i) {
    EXPECT_EQ(AlertJson(first.alerts[i]), AlertJson(second.alerts[i]));
  }
}

TEST(ServeTelemetryTest, OverloadFiresAlertsAndFreezesIncident) {
  auto a = NewEngine(MakeRtx3090());
  auto b = NewEngine(MakeA100());
  FleetScheduler fleet({a.get(), b.get()}, OverloadConfig());
  TelemetryRun run = RunWithTelemetry(fleet, OverloadTrace());

  ASSERT_FALSE(run.alerts.empty());
  bool any_firing = false;
  for (const AlertEvent& alert : run.alerts) {
    any_firing = any_firing || alert.firing;
  }
  EXPECT_TRUE(any_firing);
  // Alerts flow into the run result the report serialises.
  ASSERT_EQ(run.result.alerts.size(), run.alerts.size());

  // The incident froze at the first firing alert and is self-contained JSON:
  // trigger + config + flight rings.
  ASSERT_FALSE(run.incident.empty());
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(run.incident, &doc, &error)) << error;
  EXPECT_EQ(doc.Find("incident")->AsDouble(), 1.0);
  ASSERT_NE(doc.Find("trigger"), nullptr);
  EXPECT_TRUE(doc.Find("trigger")->Find("firing")->AsBool());
  ASSERT_NE(doc.Find("config"), nullptr);
  EXPECT_EQ(doc.Find("config")->Find("num_devices")->AsDouble(), 2.0);
  ASSERT_NE(doc.Find("events"), nullptr);
  EXPECT_GT(doc.Find("events")->AsArray().size(), 0u);
}

TEST(ServeTelemetryTest, TelemetryChangesNoSimulatedStatistics) {
  auto a = NewEngine(MakeRtx3090());
  auto b = NewEngine(MakeA100());
  FleetScheduler fleet({a.get(), b.get()}, OverloadConfig());
  const std::vector<Request> trace = OverloadTrace();
  WarmUntilConverged(fleet, trace);

  // Consecutive warm replays of one fleet are bit-identical (fleet_test
  // proves it), so any difference here is telemetry perturbing the sim.
  TelemetryRun with = RunWithTelemetry(fleet, trace);
  FleetResult bare = fleet.Run(trace);

  const ServeSummary& sa = with.result.summary.fleet;
  const ServeSummary& sb = bare.summary.fleet;
  EXPECT_EQ(sa.offered, sb.offered);
  EXPECT_EQ(sa.completed, sb.completed);
  EXPECT_EQ(sa.shed, sb.shed);
  EXPECT_EQ(sa.num_batches, sb.num_batches);
  EXPECT_DOUBLE_EQ(sa.latency_p50_us, sb.latency_p50_us);
  EXPECT_DOUBLE_EQ(sa.latency_p99_us, sb.latency_p99_us);
  EXPECT_DOUBLE_EQ(sa.utilization, sb.utilization);

  ASSERT_EQ(with.result.requests.size(), bare.requests.size());
  for (size_t i = 0; i < with.result.requests.size(); ++i) {
    const RequestRecord& ra = with.result.requests[i];
    const RequestRecord& rb = bare.requests[i];
    EXPECT_EQ(ra.request.id, rb.request.id);
    EXPECT_EQ(ra.device, rb.device);
    EXPECT_EQ(ra.batch_id, rb.batch_id);
    EXPECT_EQ(ra.shed, rb.shed);
    EXPECT_EQ(ra.completion_ns, rb.completion_ns);
  }
  ASSERT_EQ(with.result.batches.size(), bare.batches.size());
  for (size_t i = 0; i < with.result.batches.size(); ++i) {
    EXPECT_DOUBLE_EQ(with.result.batches[i].service_cycles,
                     bare.batches[i].service_cycles);
  }
}

TEST(ServeTelemetryTest, CounterTotalsBridgeToTheRunSummary) {
  auto a = NewEngine(MakeRtx3090());
  auto b = NewEngine(MakeA100());
  FleetConfig config;
  config.scheduler.queue_capacity = 2;
  config.scheduler.max_batch_size = 2;
  config.scheduler.slo_us = 2500.0;
  FleetScheduler fleet({a.get(), b.get()}, config);
  TelemetryConfig tcfg;
  tcfg.interval_us = 500.0;
  ServeTelemetry telemetry(tcfg);
  fleet.AttachTelemetry(&telemetry);
  FleetResult result = fleet.Run(OverloadTrace());

  auto totals = telemetry.series().CounterTotals();
  const ServeSummary& s = result.summary.fleet;
  EXPECT_EQ(totals["fleet/offered"], static_cast<double>(s.offered));
  EXPECT_EQ(totals["fleet/completed"], static_cast<double>(s.completed));
  EXPECT_EQ(totals["fleet/shed"], static_cast<double>(s.shed));
  double device_completed = 0.0;
  for (int dev = 0; dev < 2; ++dev) {
    device_completed += totals["dev" + std::to_string(dev) + "/completed"];
  }
  EXPECT_EQ(device_completed, static_cast<double>(s.completed));
}

TEST(ServeTelemetryTest, StopRequestDrainsIntoAValidRun) {
  auto a = NewEngine(MakeRtx3090());
  auto b = NewEngine(MakeA100());
  FleetScheduler fleet({a.get(), b.get()}, OverloadConfig());
  TelemetryRun stopped =
      RunWithTelemetry(fleet, OverloadTrace(), /*stop_before_run=*/true);
  const ServeSummary& s = stopped.result.summary.fleet;
  // Stop set before the first event: every request is shed, none served.
  EXPECT_EQ(s.completed, 0);
  EXPECT_EQ(s.shed, s.offered);
  EXPECT_EQ(stopped.result.batches.size(), 0u);
  // The drained run still accounts every request in the timeline.
  auto it = stopped.totals.find("fleet/shed");
  ASSERT_NE(it, stopped.totals.end());
  EXPECT_EQ(it->second, static_cast<double>(s.offered));
}

}  // namespace
}  // namespace serve
}  // namespace minuet
