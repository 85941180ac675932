// Serving-scheduler load sweep: offered load × batching policy × device.
//
// For each device preset, the bench first calibrates the deployment's batch-1
// service rate (warm runs of the default request mix through a RunSession),
// then sweeps Poisson offered load at 0.5/1/2/4× that rate against three
// max-batch settings. The table shows the two laws every serving system obeys
// and the trade dynamic batching buys:
//
//   - p99 latency and shed rate grow monotonically with offered load;
//   - past saturation (load >= 1), a larger max batch raises goodput (the
//     stream pool overlaps batch members, so the server drains faster) at the
//     price of higher p50 (requests wait for their batch to fill).
//
// Deterministic end to end: arrivals are seeded, time is the virtual serving
// clock, and the cache model keys on each device's own addresses, so every
// row is exactly reproducible across processes.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"
#include "src/serve/arrival.h"
#include "src/serve/fleet.h"
#include "src/serve/telemetry.h"
#include "src/util/summary.h"

namespace minuet {
namespace {

constexpr int64_t kRequests = 120;
const double kLoads[] = {0.5, 1.0, 2.0, 4.0};
const int64_t kMaxBatches[] = {1, 4, 8};

double CyclesToUs(const DeviceConfig& device, double cycles) {
  return device.CyclesToMillis(cycles) * 1000.0;
}

// Warm batch-1 service time of the default request mix, weight-averaged —
// the reciprocal is the deployment's saturation rate, the sweep's 1.0x load.
double CalibrateServiceUs(const Network& net, const DeviceConfig& device) {
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
    session.Run(cloud);                        // cold: record the plan
    RunResult warm = session.Run(cloud);       // warm: the serving steady state
    mean_us += shape.weight * CyclesToUs(device, warm.total.TotalCycles());
  }
  return mean_us;  // DefaultShapes weights sum to 1
}

// `timeline_path`, when non-empty, selects this sweep's representative cell
// (max batch 4 at 2.0x load — deep enough into overload that shedding and
// queue growth show up window by window) for a streaming-telemetry export;
// the path is cleared after the write so only the first device exports.
void BenchDevice(const DeviceConfig& device, const Network& net, bench::JsonReport& report,
                 std::string* timeline_path) {
  const double service_us = CalibrateServiceUs(net, device);
  const double base_rate_rps = 1e6 / service_us;
  std::printf("%s: warm batch-1 service %.1f us -> saturation %.0f rps\n", device.name.c_str(),
              service_us, base_rate_rps);

  for (int64_t max_batch : kMaxBatches) {
    // One engine per batch setting: every load level replays the same warm
    // plans, so rows within a column differ only by arrival pressure.
    EngineConfig config;
    config.functional = false;
    Engine engine(config, device);
    engine.Prepare(net, 1);

    serve::SchedulerConfig sched;
    sched.policy = serve::AdmissionPolicy::kFifo;
    sched.queue_capacity = 32;
    sched.max_batch_size = max_batch;
    // Short relative to service so the batch-fill timer is a nudge, not the
    // dominant latency term at low load (which would invert the load-vs-p99
    // curve: sub-saturation batches would all wait out the full timer).
    sched.max_queue_delay_us = 0.5 * service_us;
    sched.slo_us = 20.0 * service_us;
    serve::FleetConfig fleet_config;
    fleet_config.scheduler = sched;
    serve::FleetScheduler scheduler({&engine}, fleet_config);

    // Pre-warm the deployment: record each shape's plan before the sweep so
    // every load level measures the warm steady state. Otherwise the first
    // (lowest-load) row absorbs the cold first-sight runs and its tail
    // latency reads higher than rows under more pressure.
    for (const serve::RequestShape& shape : serve::DefaultShapes()) {
      GeneratorConfig gen;
      gen.target_points = shape.points;
      gen.channels = net.in_channels;
      gen.seed = shape.cloud_seed;
      scheduler.replica(0).session().Run(GenerateCloud(shape.dataset, gen));
    }

    for (double load : kLoads) {
      serve::TraceConfig arrival;
      arrival.process = serve::ArrivalProcess::kPoisson;
      arrival.rate_rps = base_rate_rps * load;
      arrival.num_requests = kRequests;
      arrival.seed = 7;
      std::unique_ptr<serve::ServeTelemetry> telemetry;
      if (!timeline_path->empty() && max_batch == 4 && load == 2.0) {
        serve::TelemetryConfig tcfg;
        // Scale the window to the deployment so the ~60-service-time run
        // spans a few dozen windows instead of one or two.
        tcfg.interval_us = 2.0 * service_us;
        telemetry = std::make_unique<serve::ServeTelemetry>(tcfg);
        scheduler.AttachTelemetry(telemetry.get());
      }
      serve::FleetResult result = scheduler.Run(arrival);
      if (telemetry != nullptr) {
        scheduler.AttachTelemetry(nullptr);
        if (telemetry->series().WriteTimeline(*timeline_path)) {
          std::printf("timeline (%s batch=%lld load=%.1fx) written to %s\n",
                      device.name.c_str(), static_cast<long long>(max_batch), load,
                      timeline_path->c_str());
        }
        timeline_path->clear();
      }
      const serve::ServeSummary& s = result.summary.fleet;

      bench::Row("%-10s %6lld %5.1fx %9.0f %7.1f%% %10.1f %10.1f %9.0f %7.1f%% %6.2f",
                 device.name.c_str(), static_cast<long long>(max_batch), load, arrival.rate_rps,
                 100.0 * s.shed_rate, s.latency_p50_us, s.latency_p99_us, s.goodput_rps,
                 100.0 * s.utilization, s.mean_batch_size);

      report.AddRow();
      report.Set("device", device.name);
      report.Set("max_batch", max_batch);
      report.Set("load", load);
      report.Set("rate_rps", arrival.rate_rps);
      report.Set("shed_rate", s.shed_rate);
      report.Set("latency_p50_us", s.latency_p50_us);
      report.Set("latency_p95_us", s.latency_p95_us);
      report.Set("latency_p99_us", s.latency_p99_us);
      report.Set("queue_p99_us", s.queue_p99_us);
      report.Set("goodput_rps", s.goodput_rps);
      report.Set("throughput_rps", s.throughput_rps);
      report.Set("utilization", s.utilization);
      report.Set("mean_batch_size", s.mean_batch_size);
      report.Set("num_batches", s.num_batches);
      report.Set("warm_requests", s.warm_requests);
    }
  }
}

int Main(int argc, char** argv) {
  const bench::Flags flags("serve_scheduler",
                           {bench::Flag::kJson, bench::Flag::kTimeline},
                           argc, argv);
  bench::JsonReport report(flags);

  bench::PrintTitle("serve_scheduler",
                    "request scheduler under offered load x max batch x device");
  bench::PrintNote("Poisson arrivals of the default small/medium/large request mix; load is "
                   "relative to each device's calibrated warm batch-1 saturation rate; queue "
                   "capacity 32, FIFO admission. p50/p99 are end-to-end serving-clock "
                   "latencies; goodput counts completions within the SLO (20x service).");

  Network net = MakeTinyUNet(4);
  report.Meta("network", net.name);
  report.Meta("requests", kRequests);
  report.Meta("policy", std::string("fifo"));
  report.Meta("queue_capacity", static_cast<int64_t>(32));

  bench::Rule();
  bench::Row("%-10s %6s %6s %9s %8s %10s %10s %9s %8s %6s", "device", "batch", "load", "rps",
             "shed", "p50(us)", "p99(us)", "goodput", "util", "mBatch");
  bench::Rule();
  std::string timeline_path = flags.Get(bench::Flag::kTimeline);
  for (const DeviceConfig& preset : {MakeRtx3090(), MakeA100()}) {
    BenchDevice(preset, net, report, &timeline_path);
    bench::Rule();
  }
  return report.Write() ? 0 : 1;
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) { return minuet::Main(argc, argv); }
