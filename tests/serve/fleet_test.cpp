// Fleet scheduler: routing policies over heterogeneous pools, merged-event
// determinism (replays and identical-pool permutations), degenerate-summary
// hygiene, and busy time defined once.
#include "src/serve/fleet.h"

#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"
#include "src/serve/arrival.h"
#include "src/serve/request.h"
#include "src/serve/scheduler.h"
#include "src/trace/metrics.h"

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

TEST(RoutingPolicyTest, NamesRoundTrip) {
  for (RoutingPolicy policy :
       {RoutingPolicy::kRoundRobin, RoutingPolicy::kLeastLoaded, RoutingPolicy::kAffinity,
        RoutingPolicy::kSjfSpillover}) {
    RoutingPolicy parsed;
    ASSERT_TRUE(ParseRoutingPolicy(RoutingPolicyName(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  RoutingPolicy parsed;
  EXPECT_FALSE(ParseRoutingPolicy("bogus", &parsed));
}

TEST(FleetTest, FleetOfOneMatchesSingleDeviceAccounting) {
  auto engine = NewEngine(MakeRtx3090());
  FleetConfig config;
  FleetScheduler fleet({engine.get()}, config);
  FleetResult result = fleet.Run({Req(0, 0.0), Req(1, 10000.0), Req(2, 10000.0)});

  EXPECT_EQ(result.summary.fleet.offered, 3);
  EXPECT_EQ(result.summary.fleet.completed, 3);
  ASSERT_EQ(result.summary.devices.size(), 1u);
  const DeviceSummary& dev = result.summary.devices[0];
  // With one replica the device slice IS the fleet — exactly: busy time has
  // one definition (batch flights on the integer-ns clock).
  EXPECT_EQ(dev.summary.offered, result.summary.fleet.offered);
  EXPECT_EQ(dev.summary.completed, result.summary.fleet.completed);
  EXPECT_EQ(dev.summary.num_batches, result.summary.fleet.num_batches);
  EXPECT_EQ(dev.summary.server_busy_us, result.summary.fleet.server_busy_us);
  EXPECT_EQ(dev.summary.utilization, result.summary.fleet.utilization);
  for (const RequestRecord& record : result.requests) {
    EXPECT_EQ(record.device, 0);
  }
  for (const BatchRecord& batch : result.batches) {
    EXPECT_EQ(batch.device, 0);
  }
  // Repeated shape: plan-cache lookups happened and mostly hit.
  EXPECT_GT(dev.plan_hits + dev.plan_misses, 0u);
}

TEST(FleetTest, HeterogeneousFleetReplaysBitIdentically) {
  // The acceptance gate: a 4-device heterogeneous pool, warmed up once, then
  // replayed twice — every record bit-identical (same trace, pool, policy).
  auto e0 = NewEngine(MakeRtx3090());
  auto e1 = NewEngine(MakeA100());
  auto e2 = NewEngine(MakeRtx2080Ti());
  auto e3 = NewEngine(MakeRtx2070Super());

  TraceConfig arrival;
  arrival.process = ArrivalProcess::kPoisson;
  arrival.rate_rps = 20000.0;  // past one device's saturation: real routing
  arrival.num_requests = 40;
  arrival.seed = 13;

  FleetConfig config;
  config.routing = RoutingPolicy::kLeastLoaded;
  config.scheduler.queue_capacity = 8;
  config.scheduler.max_batch_size = 4;

  FleetScheduler fleet({e0.get(), e1.get(), e2.get(), e3.get()}, config);
  // Warm up until a whole pass records no new plans and allocates no new
  // slabs on any replica. One pass is not enough in a fleet: replay timings
  // differ from cold-pass timings, which shifts least-loaded routing, so a
  // shape can land on a replica that never saw it and go cold mid-replay.
  // Each pass only shrinks the set of (shape, replica) pairs still cold, so
  // this converges; the cap just keeps a regression from looping forever.
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
  FleetResult a = fleet.Run(arrival);
  FleetResult b = fleet.Run(arrival);

  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].request.id, b.requests[i].request.id);
    EXPECT_EQ(a.requests[i].shed, b.requests[i].shed);
    EXPECT_EQ(a.requests[i].device, b.requests[i].device);
    EXPECT_EQ(a.requests[i].batch_id, b.requests[i].batch_id);
    EXPECT_EQ(a.requests[i].dispatch_ns, b.requests[i].dispatch_ns);
    EXPECT_EQ(a.requests[i].completion_ns, b.requests[i].completion_ns);
    EXPECT_DOUBLE_EQ(a.requests[i].service_cycles, b.requests[i].service_cycles);
  }
  ASSERT_EQ(a.batches.size(), b.batches.size());
  for (size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].device, b.batches[i].device);
    EXPECT_EQ(a.batches[i].size, b.batches[i].size);
    EXPECT_EQ(a.batches[i].dispatch_ns, b.batches[i].dispatch_ns);
    EXPECT_DOUBLE_EQ(a.batches[i].service_cycles, b.batches[i].service_cycles);
  }
  EXPECT_DOUBLE_EQ(a.summary.fleet.latency_p99_us, b.summary.fleet.latency_p99_us);
  EXPECT_DOUBLE_EQ(a.summary.plan_hit_asymmetry, b.summary.plan_hit_asymmetry);
  // Busy time is defined once: the per-device busy times add up to the
  // fleet's exactly on the serving clock's integer nanoseconds.
  int64_t device_busy_ns = 0;
  for (const DeviceSummary& dev : a.summary.devices) {
    device_busy_ns += NsFromUs(dev.summary.server_busy_us);
  }
  EXPECT_EQ(device_busy_ns, NsFromUs(a.summary.fleet.server_busy_us));
  // A real fleet run: more than one replica actually served work.
  std::set<int> devices_used;
  for (const BatchRecord& batch : a.batches) {
    devices_used.insert(batch.device);
  }
  EXPECT_GT(devices_used.size(), 1u);
}

TEST(FleetTest, PermutingIdenticalPresetsChangesOnlyLabels) {
  // Two fresh fleets over identical presets in "permuted" construction order
  // must make the same scheduling decisions: device order is a labelling
  // choice, not a behaviour. Bursts are spaced so every batch drains before
  // the next burst — decisions then depend only on the merged-event order,
  // never on simulated service times. (Exact service timing between fresh
  // engines is SchedulerTest.FreshEnginesInOneProcessServeIdentically.)
  std::vector<Request> trace;
  int64_t id = 0;
  for (int burst = 0; burst < 3; ++burst) {
    for (int i = 0; i < 4; ++i) {
      trace.push_back(Req(id++, burst * 1e6));
    }
  }

  FleetConfig config;
  config.routing = RoutingPolicy::kRoundRobin;
  config.scheduler.max_batch_size = 2;

  auto a0 = NewEngine(MakeRtx3090());
  auto a1 = NewEngine(MakeRtx3090());
  FleetScheduler fleet_a({a0.get(), a1.get()}, config);
  FleetResult a = fleet_a.Run(trace);

  auto b0 = NewEngine(MakeRtx3090());
  auto b1 = NewEngine(MakeRtx3090());
  FleetScheduler fleet_b({b1.get(), b0.get()}, config);
  FleetResult b = fleet_b.Run(trace);

  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].shed, b.requests[i].shed);
    EXPECT_EQ(a.requests[i].device, b.requests[i].device);
    EXPECT_EQ(a.requests[i].batch_id, b.requests[i].batch_id);
    EXPECT_EQ(a.requests[i].warm, b.requests[i].warm);
  }
  ASSERT_EQ(a.batches.size(), b.batches.size());
  for (size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].device, b.batches[i].device);
    EXPECT_EQ(a.batches[i].size, b.batches[i].size);
    EXPECT_EQ(a.batches[i].dispatch_ns, b.batches[i].dispatch_ns);
  }
  ASSERT_EQ(a.summary.devices.size(), b.summary.devices.size());
  for (size_t k = 0; k < a.summary.devices.size(); ++k) {
    EXPECT_EQ(a.summary.devices[k].summary.completed, b.summary.devices[k].summary.completed);
    EXPECT_EQ(a.summary.devices[k].summary.num_batches,
              b.summary.devices[k].summary.num_batches);
    EXPECT_EQ(a.summary.devices[k].plan_misses, b.summary.devices[k].plan_misses);
    EXPECT_EQ(a.summary.devices[k].name, b.summary.devices[k].name);
  }
}

TEST(FleetTest, RoundRobinAlternatesAcrossIdleReplicas) {
  auto e0 = NewEngine(MakeRtx3090());
  auto e1 = NewEngine(MakeRtx3090());
  FleetConfig config;
  config.routing = RoutingPolicy::kRoundRobin;
  FleetScheduler fleet({e0.get(), e1.get()}, config);
  // Arrivals far apart: each is routed, dispatched, and completes alone.
  FleetResult result =
      fleet.Run({Req(0, 0.0), Req(1, 1e6), Req(2, 2e6), Req(3, 3e6)});
  ASSERT_EQ(result.requests.size(), 4u);
  EXPECT_EQ(result.requests[0].device, 0);
  EXPECT_EQ(result.requests[1].device, 1);
  EXPECT_EQ(result.requests[2].device, 0);
  EXPECT_EQ(result.requests[3].device, 1);
}

TEST(FleetTest, SjfSpilloverPrefersTheFasterIdleReplica) {
  // Both replicas idle: shortest expected finish is the faster device, even
  // though it is listed second.
  auto slow = NewEngine(MakeRtx2070Super());
  auto fast = NewEngine(MakeA100());
  FleetConfig config;
  config.routing = RoutingPolicy::kSjfSpillover;
  FleetScheduler fleet({slow.get(), fast.get()}, config);
  FleetResult result = fleet.Run({Req(0, 0.0)});
  ASSERT_EQ(result.requests.size(), 1u);
  EXPECT_EQ(result.requests[0].device, 1);
}

TEST(FleetTest, AffinityPinsShapesAndLeastLoadedSpreadsThem) {
  // Six shapes, four requests each, interleaved. Affinity must serve every
  // request of one shape on one replica; least-loaded must split at least one
  // shape across replicas (that split is what costs it plan-cache hits).
  std::vector<Request> trace;
  int64_t id = 0;
  for (int round = 0; round < 4; ++round) {
    for (int shape = 0; shape < 6; ++shape) {
      trace.push_back(Req(id, static_cast<double>(id) * 400.0, 200 + 50 * shape,
                          /*cloud_seed=*/static_cast<uint64_t>(shape + 1)));
      ++id;
    }
  }

  FleetConfig affinity_config;
  affinity_config.routing = RoutingPolicy::kAffinity;
  affinity_config.scheduler.max_batch_size = 1;
  auto a0 = NewEngine(MakeRtx3090());
  auto a1 = NewEngine(MakeA100());
  FleetScheduler affinity_fleet({a0.get(), a1.get()}, affinity_config);
  FleetResult affinity = affinity_fleet.Run(trace);

  std::map<uint64_t, std::set<int>> affinity_devices;
  for (const RequestRecord& record : affinity.requests) {
    ASSERT_FALSE(record.shed);
    affinity_devices[record.request.cloud_seed].insert(record.device);
  }
  for (const auto& [seed, devices] : affinity_devices) {
    EXPECT_EQ(devices.size(), 1u) << "shape " << seed << " split across replicas";
  }

  FleetConfig spread_config;
  spread_config.routing = RoutingPolicy::kLeastLoaded;
  spread_config.scheduler.max_batch_size = 1;
  auto l0 = NewEngine(MakeRtx3090());
  auto l1 = NewEngine(MakeA100());
  FleetScheduler spread_fleet({l0.get(), l1.get()}, spread_config);
  FleetResult spread = spread_fleet.Run(trace);

  std::map<uint64_t, std::set<int>> spread_devices;
  for (const RequestRecord& record : spread.requests) {
    spread_devices[record.request.cloud_seed].insert(record.device);
  }
  size_t split_shapes = 0;
  for (const auto& [seed, devices] : spread_devices) {
    split_shapes += devices.size() > 1 ? 1 : 0;
  }
  EXPECT_GT(split_shapes, 0u);

  // The split shows up as routing-policy divergence in per-device plan-cache
  // hit rates: affinity repeats always land warm, least-loaded pays a cold
  // miss per (shape, extra replica) pair.
  uint64_t affinity_misses = 0, spread_misses = 0;
  for (const DeviceSummary& dev : affinity.summary.devices) {
    affinity_misses += dev.plan_misses;
  }
  for (const DeviceSummary& dev : spread.summary.devices) {
    spread_misses += dev.plan_misses;
  }
  EXPECT_GT(spread_misses, affinity_misses);
}

TEST(FleetTest, AllShedFleetSummaryStaysFinite) {
  // Zero capacity + every arrival at t=0: offered > 0, completed == 0, and
  // duration_us == 0. Every derived rate and percentile must be exactly 0 —
  // the division-by-zero family the single-device path papered over.
  auto e0 = NewEngine(MakeRtx3090());
  auto e1 = NewEngine(MakeA100());
  FleetConfig config;
  config.scheduler.queue_capacity = 0;
  FleetScheduler fleet({e0.get(), e1.get()}, config);
  FleetResult result = fleet.Run({Req(0, 0.0), Req(1, 0.0), Req(2, 0.0)});

  const ServeSummary& s = result.summary.fleet;
  EXPECT_EQ(s.offered, 3);
  EXPECT_EQ(s.shed, 3);
  EXPECT_EQ(s.completed, 0);
  EXPECT_DOUBLE_EQ(s.duration_us, 0.0);
  for (double value :
       {s.duration_us, s.server_busy_us, s.utilization, s.offered_rps, s.throughput_rps,
        s.goodput_rps, s.slo_attainment, s.mean_batch_size, s.queue_p50_us, s.queue_p95_us,
        s.queue_p99_us, s.service_p50_us, s.service_p95_us, s.service_p99_us, s.latency_p50_us,
        s.latency_p95_us, s.latency_p99_us}) {
    EXPECT_TRUE(std::isfinite(value));
    EXPECT_DOUBLE_EQ(value, 0.0);
  }
  EXPECT_DOUBLE_EQ(s.shed_rate, 1.0);
  for (const DeviceSummary& dev : result.summary.devices) {
    EXPECT_TRUE(std::isfinite(dev.summary.utilization));
    EXPECT_TRUE(std::isfinite(dev.plan_hit_rate));
    EXPECT_TRUE(std::isfinite(dev.summary.latency_p99_us));
  }
  for (const TierSummary& tier : result.summary.tiers) {
    EXPECT_TRUE(std::isfinite(tier.latency_p50_us));
    EXPECT_TRUE(std::isfinite(tier.latency_p99_us));
  }
  EXPECT_TRUE(std::isfinite(result.summary.plan_hit_asymmetry));
}

TEST(FleetTest, TiersSplitByPriority) {
  auto engine = NewEngine(MakeRtx3090());
  FleetConfig config;
  FleetScheduler fleet({engine.get()}, config);
  std::vector<Request> trace = {Req(0, 0.0), Req(1, 1e6), Req(2, 2e6)};
  trace[1].priority = 1;
  trace[2].priority = 1;
  FleetResult result = fleet.Run(trace);
  ASSERT_EQ(result.summary.tiers.size(), 2u);
  EXPECT_EQ(result.summary.tiers[0].priority, 0);
  EXPECT_EQ(result.summary.tiers[0].offered, 1);
  EXPECT_EQ(result.summary.tiers[1].priority, 1);
  EXPECT_EQ(result.summary.tiers[1].offered, 2);
  EXPECT_EQ(result.summary.tiers[1].completed, 2);
  EXPECT_GT(result.summary.tiers[1].latency_p99_us, 0.0);
}

// The executor seam: a fake that charges every member a fixed cycle count
// makes every timestamp computable by hand on the integer-ns clock. A
// zero-deadline hook then sheds every request that cannot start on arrival.
TEST(FleetTest, FakeExecutorRunsOnTheIntegerClock) {
  auto engine = NewEngine(MakeRtx3090());
  FleetConfig config;
  config.scheduler.max_batch_size = 1;
  FleetScheduler fleet({engine.get()}, config);
  ServeHooks hooks;
  hooks.execute = [](int, const Request&, int64_t) {
    MemberRun run;
    run.cycles.elementwise = 1e6;
    return run;
  };
  const int64_t service_ns = NsFromCycles(engine->device().config(), 1e6);
  ASSERT_GT(service_ns, 10000);
  const std::vector<Request> trace = {Req(0, 0.0), Req(1, 0.0), Req(2, 10.0)};

  FleetResult result = fleet.Run(trace, hooks);
  ASSERT_EQ(result.requests.size(), 3u);
  for (int64_t i = 0; i < 3; ++i) {
    const RequestRecord& record = result.requests[static_cast<size_t>(i)];
    EXPECT_EQ(record.dispatch_ns, i * service_ns);
    EXPECT_EQ(record.completion_ns, (i + 1) * service_ns);
    EXPECT_EQ(record.trace.exec_other_ns, service_ns);
  }
  EXPECT_EQ(result.summary.fleet.server_busy_us, NsToUs(3 * service_ns));
  EXPECT_EQ(result.summary.fleet.utilization, 1.0);

  int64_t dropped = 0;
  hooks.deadline_us = 0.0;
  hooks.on_drop = [&](const Request&, int64_t now_ns) {
    EXPECT_EQ(now_ns, service_ns);
    ++dropped;
  };
  result = fleet.Run(trace, hooks);
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(result.summary.fleet.completed, 1);
  EXPECT_EQ(result.summary.fleet.shed, 2);
  EXPECT_TRUE(result.requests[1].shed);
  EXPECT_TRUE(result.requests[2].shed);
}

// Every metric name in `registry` that starts with `prefix`.
int CountPrefixed(const trace::MetricsRegistry& registry, const std::string& prefix) {
  int n = 0;
  auto count = [&](const auto& metrics) {
    for (const auto& entry : metrics) {
      n += entry.first.rfind(prefix, 0) == 0 ? 1 : 0;
    }
  };
  count(registry.counters());
  count(registry.gauges());
  count(registry.labels());
  count(registry.histograms());
  return n;
}

// The deployment naming rule for device metrics: one replica is "the device"
// (device/... plus its session counters), more replicas are dev<k>/....
TEST(FleetTest, DeviceMetricsNamingRule) {
  auto e0 = NewEngine(MakeRtx3090());
  FleetScheduler one({e0.get()}, FleetConfig{});
  one.Run({Req(0, 0.0)});
  trace::MetricsRegistry single;
  PublishDeviceMetrics({e0.get()}, &one.replica(0).session(), single);
  EXPECT_EQ(single.gauges().count("device/total/millis"), 1u);
  EXPECT_EQ(single.counters().count("session/warm_runs"), 1u);
  EXPECT_EQ(CountPrefixed(single, "dev0/"), 0);

  auto e1 = NewEngine(MakeA100());
  FleetScheduler two({e0.get(), e1.get()}, FleetConfig{});
  two.Run({Req(0, 0.0), Req(1, 0.0)});
  trace::MetricsRegistry pool;
  PublishDeviceMetrics({e0.get(), e1.get()}, &two.replica(0).session(), pool);
  EXPECT_GT(CountPrefixed(pool, "dev0/"), 0);
  EXPECT_GT(CountPrefixed(pool, "dev1/"), 0);
  EXPECT_EQ(CountPrefixed(pool, "device/"), 0);
  EXPECT_EQ(CountPrefixed(pool, "session/"), 0);
}

}  // namespace
}  // namespace serve
}  // namespace minuet
