// Fleet-serving sweep: device pool × offered load × routing policy.
//
// Each pool is first calibrated (sum of per-preset warm batch-1 saturation
// rates), then swept at sub-saturation, moderate-overload, and deep-overload
// Poisson traffic under every routing policy. The table shows what routing
// buys on a heterogeneous pool:
//
//   - least-loaded and SJF-spillover track each other on goodput, but
//     spillover shifts work toward the fast replicas, so its per-device
//     utilization skews where least-loaded equalises queue lengths;
//   - affinity trades a little load balance for plan-cache locality: its
//     per-device hit rates are uniformly warm (low asymmetry), while
//     least-loaded keeps paying cold misses on lightly-loaded replicas;
//   - round-robin is the no-information floor.
//
// Deterministic like serve_scheduler: seeded arrivals, the virtual serving
// clock and per-device address spaces make every row exact.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"
#include "src/serve/arrival.h"
#include "src/serve/fleet.h"
#include "src/serve/scheduler.h"
#include "src/serve/telemetry.h"

namespace minuet {
namespace {

constexpr int64_t kRequests = 90;
const double kLoads[] = {0.5, 1.5, 3.0};
const serve::RoutingPolicy kPolicies[] = {
    serve::RoutingPolicy::kRoundRobin, serve::RoutingPolicy::kLeastLoaded,
    serve::RoutingPolicy::kAffinity, serve::RoutingPolicy::kSjfSpillover};

struct Pool {
  std::string label;
  std::vector<DeviceConfig> presets;
};

double CyclesToUs(const DeviceConfig& device, double cycles) {
  return device.CyclesToMillis(cycles) * 1000.0;
}

// Warm batch-1 service time of the default request mix on one preset (same
// calibration as serve_scheduler); cached per preset name because the 4-wide
// pool shares presets with the 2-wide one.
double CalibrateServiceUs(const Network& net, const DeviceConfig& device) {
  static std::map<std::string, double> cache;
  auto it = cache.find(device.name);
  if (it != cache.end()) {
    return it->second;
  }
  EngineConfig config;
  config.functional = false;
  Engine engine(config, device);
  engine.Prepare(net, 1);
  RunSession session(engine);
  double mean_us = 0.0;
  for (const serve::RequestShape& shape : serve::DefaultShapes()) {
    GeneratorConfig gen;
    gen.target_points = shape.points;
    gen.channels = net.in_channels;
    gen.seed = shape.cloud_seed;
    PointCloud cloud = GenerateCloud(shape.dataset, gen);
    session.Run(cloud);                   // cold: record the plan
    RunResult warm = session.Run(cloud);  // warm: the serving steady state
    mean_us += shape.weight * CyclesToUs(device, warm.total.TotalCycles());
  }
  cache[device.name] = mean_us;
  return mean_us;
}

// `timeline_path`, when non-empty, selects this sweep's representative cell
// (least-loaded routing at 3.0x load — deep overload, where shed and burn
// signals are visible) for a streaming-telemetry export; the path is cleared
// after the write so only the first pool exports.
void BenchPool(const Pool& pool, const Network& net, bench::JsonReport& report,
               std::string* timeline_path) {
  // Pool saturation = sum of per-replica saturation rates; load 1.0 offers
  // exactly what the whole pool can drain warm at batch 1.
  double pool_rate_rps = 0.0;
  for (const DeviceConfig& preset : pool.presets) {
    pool_rate_rps += 1e6 / CalibrateServiceUs(net, preset);
  }
  std::printf("%s: pooled warm batch-1 saturation %.0f rps\n", pool.label.c_str(),
              pool_rate_rps);

  for (serve::RoutingPolicy policy : kPolicies) {
    // Fresh replicas per policy: each cell owns its plan caches and pools, so
    // policies are compared from the same cold start. Loads then share the
    // warmed fleet, mirroring serve_scheduler's per-column engine reuse.
    std::vector<std::unique_ptr<Engine>> engines;
    std::vector<Engine*> raw;
    for (const DeviceConfig& preset : pool.presets) {
      EngineConfig config;
      config.functional = false;
      engines.push_back(std::make_unique<Engine>(config, preset));
      engines.back()->Prepare(net, 1);
      raw.push_back(engines.back().get());
    }

    const double service_us = 1e6 * pool.presets.size() / pool_rate_rps;
    serve::FleetConfig fleet_config;
    fleet_config.routing = policy;
    fleet_config.scheduler.policy = serve::AdmissionPolicy::kFifo;
    fleet_config.scheduler.queue_capacity = 16;
    fleet_config.scheduler.max_batch_size = 4;
    fleet_config.scheduler.max_queue_delay_us = 0.5 * service_us;
    fleet_config.scheduler.slo_us = 20.0 * service_us;
    serve::FleetScheduler fleet(raw, fleet_config);

    // Warm-up pass at load 1.0 so every load level measures routing over a
    // warmed fleet, not the cold first-sight transient.
    serve::TraceConfig warmup;
    warmup.process = serve::ArrivalProcess::kPoisson;
    warmup.rate_rps = pool_rate_rps;
    warmup.num_requests = kRequests;
    warmup.seed = 7;
    fleet.Run(warmup);

    for (double load : kLoads) {
      serve::TraceConfig arrival;
      arrival.process = serve::ArrivalProcess::kPoisson;
      arrival.rate_rps = pool_rate_rps * load;
      arrival.num_requests = kRequests;
      arrival.seed = 7;
      std::unique_ptr<serve::ServeTelemetry> telemetry;
      if (!timeline_path->empty() && policy == serve::RoutingPolicy::kLeastLoaded &&
          load == 3.0) {
        serve::TelemetryConfig tcfg;
        tcfg.interval_us = 2.0 * service_us;
        telemetry = std::make_unique<serve::ServeTelemetry>(tcfg);
        fleet.AttachTelemetry(telemetry.get());
      }
      serve::FleetResult result = fleet.Run(arrival);
      if (telemetry != nullptr) {
        fleet.AttachTelemetry(nullptr);
        if (telemetry->series().WriteTimeline(*timeline_path)) {
          std::printf("timeline (%s %s load=%.1fx) written to %s\n", pool.label.c_str(),
                      serve::RoutingPolicyName(policy), load, timeline_path->c_str());
        }
        timeline_path->clear();
      }
      const serve::ServeSummary& s = result.summary.fleet;

      bench::Row("%-22s %-13s %5.1fx %9.0f %7.1f%% %10.1f %9.0f %7.1f%% %7.3f",
                 pool.label.c_str(), serve::RoutingPolicyName(policy), load, arrival.rate_rps,
                 100.0 * s.shed_rate, s.latency_p99_us, s.goodput_rps, 100.0 * s.utilization,
                 result.summary.plan_hit_asymmetry);

      report.AddRow();
      report.Set("pool", pool.label);
      report.Set("routing", std::string(serve::RoutingPolicyName(policy)));
      report.Set("load", load);
      report.Set("rate_rps", arrival.rate_rps);
      report.Set("shed_rate", s.shed_rate);
      report.Set("latency_p50_us", s.latency_p50_us);
      report.Set("latency_p99_us", s.latency_p99_us);
      report.Set("goodput_rps", s.goodput_rps);
      report.Set("throughput_rps", s.throughput_rps);
      report.Set("utilization", s.utilization);
      report.Set("mean_batch_size", s.mean_batch_size);
      report.Set("num_batches", s.num_batches);
      report.Set("warm_requests", s.warm_requests);
      report.Set("plan_hit_rate_min", result.summary.plan_hit_rate_min);
      report.Set("plan_hit_rate_max", result.summary.plan_hit_rate_max);
      report.Set("plan_hit_asymmetry", result.summary.plan_hit_asymmetry);
    }
  }
}

int Main(int argc, char** argv) {
  const bench::Flags flags("fleet_sweep", {bench::Flag::kJson, bench::Flag::kTimeline}, argc, argv);
  bench::JsonReport report(flags);

  bench::PrintTitle("fleet_sweep",
                    "heterogeneous fleet serving under pool x load x routing policy");
  bench::PrintNote("Poisson arrivals of the default request mix across an N-replica pool; load "
                   "is relative to the pool's summed warm batch-1 saturation rate. Queue "
                   "capacity 16/replica, FIFO admission, max batch 4. asym is the spread "
                   "between the warmest and coldest per-device plan-cache hit rate.");

  Network net = MakeTinyUNet(4);
  report.Meta("network", net.name);
  report.Meta("requests", kRequests);
  report.Meta("queue_capacity", static_cast<int64_t>(16));
  report.Meta("max_batch", static_cast<int64_t>(4));

  const Pool pools[] = {
      {"3090+a100", {MakeRtx3090(), MakeA100()}},
      {"3090+a100+2080ti+2070s",
       {MakeRtx3090(), MakeA100(), MakeRtx2080Ti(), MakeRtx2070Super()}},
  };

  bench::Rule();
  bench::Row("%-22s %-13s %6s %9s %8s %10s %9s %8s %7s", "pool", "routing", "load", "rps",
             "shed", "p99(us)", "goodput", "util", "asym");
  bench::Rule();
  std::string timeline_path = flags.Get(bench::Flag::kTimeline);
  for (const Pool& pool : pools) {
    BenchPool(pool, net, report, &timeline_path);
    bench::Rule();
  }
  return report.Write() ? 0 : 1;
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) { return minuet::Main(argc, argv); }
