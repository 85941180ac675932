// Serving-loop benchmark: cold-vs-warm inference through a RunSession.
//
// A deployed model runs the same network on a stream of frames. The first
// sight of a coordinate set is a cold run (Map step, metadata kernels, GEMM
// grouping, workspace allocation); every repeat is warm — the session replays
// the cached ExecutionPlan and draws all scratch storage from its workspace
// pool. This table quantifies what the serving path saves per engine: the
// simulated on-GPU time (the Map/metadata work that drops out), the host-side
// orchestration time (reported as warm p50/p95/p99 over the loop), and the
// per-run allocation count (zero when warm).
//
// Machine-readable output: --json=FILE mirrors the table (plus the session
// counters) as a bench report; --metrics=FILE.<engine> dumps each engine's
// metrics-registry snapshot; --trace=FILE.<engine> records the serving loop
// as a Chrome trace (open in Perfetto / chrome://tracing). --warmup=N
// (default 2) inserts N unmeasured warm runs before the measured loop so the
// host percentiles exclude first-iteration effects.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/summary.h"
#include "src/util/timer.h"

namespace minuet {
namespace {

constexpr int64_t kPoints = 8000;
// Enough warm repeats that the p95/p99 columns interpolate between real
// samples instead of collapsing onto the max.
constexpr int kWarmRuns = 20;

struct Options {
  std::string metrics;  // per-engine metrics snapshots; empty: off
  std::string trace;    // per-engine Chrome traces; empty: off
  // Unmeasured warm runs between the cold run and the measured loop, so the
  // host-time percentiles sample a steady state (first warm runs still pay
  // cold branch predictors, lazy page faults and allocator growth).
  int warmup = 2;
};

bool BenchEngine(EngineKind kind, const Network& net, const PointCloud& cloud,
                 const DeviceConfig& device, const Options& opts, bench::JsonReport& report) {
  EngineConfig config;
  config.kind = kind;
  config.functional = false;  // timing-only: charge kernels, skip arithmetic
  Engine engine(config, device);
  engine.Prepare(net, 1);
  if (kind == EngineKind::kMinuet) {
    engine.Autotune(cloud);
  }

  // The tracer (if requested) goes in after Autotune so the trace holds
  // exactly the serving loop: one cold run span plus kWarmRuns warm ones.
  trace::Tracer tracer;
  if (!opts.trace.empty()) {
    trace::Tracer::Install(&tracer);
  }

  RunSession session(engine);
  WallTimer timer;
  RunResult cold = session.Run(cloud);
  const double cold_host = timer.ElapsedMillis();
  const uint64_t cold_allocs = session.workspace_pool().stats().allocations;

  // Warmup: excluded from every reported warm statistic below.
  for (int r = 0; r < opts.warmup; ++r) {
    session.Run(cloud);
  }

  double warm_sim = 0.0;
  double warm_map = 0.0;
  uint64_t warm_allocs = 0;
  uint64_t warm_reuses = 0;
  std::vector<double> warm_host_samples;
  warm_host_samples.reserve(kWarmRuns);
  RunResult warm;
  for (int r = 0; r < kWarmRuns; ++r) {
    session.workspace_pool().ResetStats();
    timer.Reset();
    warm = session.Run(cloud);
    warm_host_samples.push_back(timer.ElapsedMillis());
    warm_sim += device.CyclesToMillis(warm.total.TotalCycles());
    warm_map += device.CyclesToMillis(warm.total.MapCycles());
    warm_allocs += session.workspace_pool().stats().allocations;
    warm_reuses += session.workspace_pool().stats().reuses;
  }
  if (!opts.trace.empty()) {
    trace::Tracer::Install(nullptr);
  }

  const double p50 = Percentile(warm_host_samples, 50.0);
  const double p95 = Percentile(warm_host_samples, 95.0);
  const double p99 = Percentile(warm_host_samples, 99.0);
  const SessionStats stats = session.stats();

  bench::Row("%-16s %9.3f %9.3f %9.3f %9.3f %9.2f %8.2f %8.2f %8.2f %7llu %7llu",
             EngineKindName(kind), device.CyclesToMillis(cold.total.TotalCycles()),
             warm_sim / kWarmRuns, device.CyclesToMillis(cold.total.MapCycles()),
             warm_map / kWarmRuns, cold_host, p50, p95, p99,
             static_cast<unsigned long long>(cold_allocs),
             static_cast<unsigned long long>(warm_allocs / kWarmRuns));
  bench::Row("%-16s session: plan cache %llu hit / %llu miss / %llu evict | "
             "pool %llu reuse / %llu alloc (warm loop)",
             "", static_cast<unsigned long long>(stats.plan.hits),
             static_cast<unsigned long long>(stats.plan.misses),
             static_cast<unsigned long long>(stats.plan.evictions),
             static_cast<unsigned long long>(warm_reuses),
             static_cast<unsigned long long>(warm_allocs));

  report.AddRow();
  report.Set("engine", std::string(EngineKindName(kind)));
  report.Set("cold_sim_ms", device.CyclesToMillis(cold.total.TotalCycles()));
  report.Set("warm_sim_ms", warm_sim / kWarmRuns);
  report.Set("cold_map_ms", device.CyclesToMillis(cold.total.MapCycles()));
  report.Set("warm_map_ms", warm_map / kWarmRuns);
  report.Set("cold_host_ms", cold_host);
  report.Set("warm_host_p50_ms", p50);
  report.Set("warm_host_p95_ms", p95);
  report.Set("warm_host_p99_ms", p99);
  report.Set("cold_allocs", static_cast<int64_t>(cold_allocs));
  report.Set("warm_allocs_per_run", static_cast<int64_t>(warm_allocs / kWarmRuns));
  report.Set("plan_cache_hits", static_cast<int64_t>(stats.plan.hits));
  report.Set("plan_cache_misses", static_cast<int64_t>(stats.plan.misses));
  report.Set("plan_cache_evictions", static_cast<int64_t>(stats.plan.evictions));
  report.Set("pool_reuses", static_cast<int64_t>(stats.pool.reuses));
  report.Set("cold_runs", static_cast<int64_t>(stats.cold_runs));
  report.Set("warm_runs", static_cast<int64_t>(stats.warm_runs));
  // Device-level utilisation aggregates over the whole serving loop (cold +
  // warm runs): how full the simulated GPU ran and what bound it.
  const KernelStats& totals = engine.device().totals();
  report.Set("occupancy", totals.Occupancy());
  report.Set("dram_bw_util", totals.DramBandwidthUtilization(device));
  report.Set("roofline", std::string(RooflineClassName(totals.Roofline())));

  bool ok = true;
  if (!opts.metrics.empty()) {
    trace::MetricsRegistry registry;
    engine.device().PublishMetrics(registry);
    session.PublishMetrics(registry);
    PublishRunMetrics(warm, device, registry);
    FixedHistogram& hist =
        registry.GetHistogram("serve/warm_host_ms", 0.0, 8.0 * p50 + 1.0, 32);
    for (double sample : warm_host_samples) {
      hist.Add(sample);
    }
    const std::string path = opts.metrics + "." + EngineKindName(kind);
    if (registry.WriteSnapshot(path)) {
      std::printf("  metrics snapshot written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "  could not write metrics to %s\n", path.c_str());
      ok = false;
    }
  }
  if (!opts.trace.empty()) {
    const std::string path = opts.trace + "." + EngineKindName(kind);
    if (WriteChromeTrace(tracer, path)) {
      std::printf("  span trace (%lld spans) written to %s\n",
                  static_cast<long long>(tracer.spans().size()), path.c_str());
    } else {
      std::fprintf(stderr, "  could not write trace to %s\n", path.c_str());
      ok = false;
    }
  }
  return ok;
}

int Main(int argc, char** argv) {
  const bench::Flags flags(
      "serve_warm_loop",
      {bench::Flag::kJson, bench::Flag::kMetrics, bench::Flag::kTrace, bench::Flag::kWarmup},
      argc, argv);
  Options opts;
  opts.metrics = flags.Get(bench::Flag::kMetrics);
  opts.trace = flags.Get(bench::Flag::kTrace);
  opts.warmup = flags.Warmup(opts.warmup);
  bench::JsonReport report(flags);

  bench::PrintTitle("serve_warm_loop",
                    "repeated inference through RunSession (plan cache + workspace pool)");
  bench::PrintNote("cold = first sight of the coordinate set (records the plan); "
                   "warm = replay (20 runs, after --warmup unmeasured runs). sim = "
                   "simulated GPU ms, host p50/p95/p99 = wall-clock orchestration ms "
                   "percentiles over the measured runs only, allocs = workspace "
                   "allocations per run.");

  DeviceConfig device = MakeRtx3090();
  GeneratorConfig gen;
  gen.target_points = kPoints;
  gen.channels = 4;
  gen.seed = 3;
  PointCloud cloud = GenerateCloud(DatasetKind::kKitti, gen);
  Network net = MakeMinkUNet42(4);

  std::printf("network %s | kitti (%lld points) | %s\n", net.name.c_str(),
              static_cast<long long>(cloud.num_points()), device.name.c_str());
  report.Meta("network", net.name);
  report.Meta("dataset", std::string("kitti"));
  report.Meta("points", cloud.num_points());
  report.Meta("device", device.name);
  report.Meta("warm_runs", static_cast<int64_t>(kWarmRuns));
  report.Meta("warmup_runs", static_cast<int64_t>(opts.warmup));

  bench::Rule();
  bench::Row("%-16s %9s %9s %9s %9s %9s %8s %8s %8s %7s %7s", "engine", "cold-sim", "warm-sim",
             "cold-map", "warm-map", "cold-host", "w-p50", "w-p95", "w-p99", "cAllocs",
             "wAllocs");
  bench::Rule();
  bool ok = true;
  for (EngineKind kind :
       {EngineKind::kMinkowski, EngineKind::kTorchSparse, EngineKind::kMinuet}) {
    ok = BenchEngine(kind, net, cloud, device, opts, report) && ok;
  }
  bench::Rule();
  ok = report.Write() && ok;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) { return minuet::Main(argc, argv); }
