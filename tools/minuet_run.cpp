// minuet_run: command-line driver for the engines. `minuet_run --help` lists
// the flags.
//
// Prints the simulated end-to-end time and per-step breakdown; with --layers,
// a per-conv-layer table.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/flags.h"
#include "src/util/timer.h"

namespace minuet {
namespace {

constexpr EngineKind kAllEngines[] = {EngineKind::kMinkowski, EngineKind::kTorchSparse,
                                      EngineKind::kMinuet};

struct Options {
  std::vector<EngineKind> engines{std::begin(kAllEngines), std::end(kAllEngines)};
  Network net = MakeMinkUNet42(4);
  DatasetKind dataset = DatasetKind::kKitti;
  DeviceConfig device = MakeRtx3090();
  int64_t points = 50000;
  uint64_t seed = 1;
  bool functional = false;
  bool autotune = true;
  bool layers = false;
  bool fp16 = false;
  int repeat = 1;      // total inference runs per engine
  bool reuse = false;  // serve repeats through a RunSession (plan cache + pool)
  std::string trace_json;  // Chrome trace-event JSON; empty: off
  std::string metrics;     // metrics snapshot JSON; empty: off
};

FlagCommand Command(Options* o) {
  return {"minuet_run [flags]",
          {{"engine", "minuet|torchsparse|minkowski|all", "engines to run (default all)",
            [o](const std::string& name) {
              EngineKind kind = EngineKind::kMinuet;
              if (name == "all") {
                o->engines.assign(std::begin(kAllEngines), std::end(kAllEngines));
              } else if (EngineKindForPreset(name, &kind)) {
                o->engines = {kind};
              } else {
                return false;
              }
              return true;
            }},
           {"network", "unet42|resnet21|tiny", "network (default unet42)",
            Choice(NetworkForPreset, &o->net)},
           {"dataset", "kitti|s3dis|sem3d|shapenet|random", "dataset (default kitti)",
            Choice(ParseDatasetName, &o->dataset)},
           {"gpu", "2070s|2080ti|3090|a100", "simulated device (default 3090)",
            Choice(DeviceConfigForPreset, &o->device)},
           {"points", "N", "target point count (default 50000)", &o->points, FlagBound::kPositive},
           {"seed", "N", "cloud and weight seed (default 1)", &o->seed},
           {"functional", "0|1", "compute features, not only time (default 0)",
            FlagBit{&o->functional}},
           {"autotune", "0|1", "autotune Minuet's tiles first (default 1)", FlagBit{&o->autotune}},
           {"layers", "", "print a per-conv-layer table", FlagSwitch{&o->layers}},
           {"precision", "fp32|fp16", "arithmetic precision (default fp32)",
            [o](const std::string& name) {
              o->fp16 = name == "fp16";
              return o->fp16 || name == "fp32";
            }},
           {"repeat", "N", "run each engine N times on the same cloud", &o->repeat,
            FlagBound::kPositive},
           {"reuse", "",
            "serve repeats through a persistent RunSession (cached plans + pooled\n"
            "workspaces; warm runs skip the Map step and allocate nothing)",
            FlagSwitch{&o->reuse}},
           {"trace", "FILE",
            "write a Chrome trace-event JSON (Perfetto / chrome://tracing): nested\n"
            "run/layer/step/kernel spans on a host-clock and a simulated-device track",
            &o->trace_json},
           {"metrics", "FILE",
            "write a metrics-registry snapshot (device kernel aggregates, per-layer\n"
            "padding, session counters)",
            &o->metrics}}};
}

// Suffixes `path` with the engine name when several engines share one flag
// value (--engine all), so each writes its own file.
std::string PerEnginePath(const std::string& path, const Options& opts, EngineKind kind) {
  if (opts.engines.size() == 1) {
    return path;
  }
  return path + "." + EngineKindName(kind);
}

bool RunOne(EngineKind kind, const Options& opts, const Network& net, const PointCloud& cloud,
            const PointCloud& sample, const DeviceConfig& device) {
  EngineConfig config;
  config.kind = kind;
  config.functional = opts.functional;
  config.precision = opts.fp16 ? Precision::kFp16 : Precision::kFp32;
  Engine engine(config, device);
  engine.Prepare(net, opts.seed);
  if (opts.autotune && kind == EngineKind::kMinuet) {
    engine.Autotune(sample);
  }
  // The span tracer goes in only now, after Autotune, so the trace covers
  // exactly the measured runs (the tuning scratch device stays silent).
  trace::Tracer tracer;
  if (!opts.trace_json.empty()) {
    trace::Tracer::Install(&tracer);
  }
  std::unique_ptr<RunSession> session;
  RunResult result;
  if (opts.reuse) {
    // Serving mode: first run is cold (records the execution plan, warms the
    // workspace pool), the rest replay it. Reported result is the last run.
    session = std::make_unique<RunSession>(engine);
    WallTimer timer;
    result = session->Run(cloud);
    const double cold_host_ms = timer.ElapsedMillis();
    const double cold_sim_ms = device.CyclesToMillis(result.total.TotalCycles());
    const uint64_t cold_allocs = session->workspace_pool().stats().allocations;
    double warm_host_ms = 0.0;
    double warm_sim_ms = 0.0;
    uint64_t warm_allocs = 0;
    for (int r = 1; r < opts.repeat; ++r) {
      session->workspace_pool().ResetStats();
      timer.Reset();
      result = session->Run(cloud);
      warm_host_ms += timer.ElapsedMillis();
      warm_sim_ms += device.CyclesToMillis(result.total.TotalCycles());
      warm_allocs += session->workspace_pool().stats().allocations;
    }
    const int warm_runs = opts.repeat - 1;
    if (warm_runs > 0) {
      std::printf("%-16s serving: cold %9.3f ms sim / %8.3f ms host / %llu allocs"
                  "  ->  warm %9.3f ms sim / %8.3f ms host / %llu allocs (avg of %d)\n",
                  EngineKindName(kind), cold_sim_ms, cold_host_ms,
                  static_cast<unsigned long long>(cold_allocs), warm_sim_ms / warm_runs,
                  warm_host_ms / warm_runs,
                  static_cast<unsigned long long>(warm_allocs / static_cast<uint64_t>(warm_runs)),
                  warm_runs);
    } else {
      std::printf("%-16s serving: cold %9.3f ms sim / %8.3f ms host / %llu allocs"
                  " (no warm runs; use --repeat)\n",
                  EngineKindName(kind), cold_sim_ms, cold_host_ms,
                  static_cast<unsigned long long>(cold_allocs));
    }
  } else {
    for (int r = 0; r + 1 < opts.repeat; ++r) {
      engine.Run(cloud);  // stateless repeats redo everything
    }
    result = engine.Run(cloud);
  }
  bool ok = true;
  if (!opts.trace_json.empty()) {
    trace::Tracer::Install(nullptr);
    std::string path = PerEnginePath(opts.trace_json, opts, kind);
    if (WriteChromeTrace(tracer, path)) {
      std::printf("  span trace (%lld spans, %lld kernels) written to %s\n",
                  static_cast<long long>(tracer.spans().size()),
                  static_cast<long long>(tracer.CountCategory("kernel")), path.c_str());
    } else {
      std::fprintf(stderr, "  could not write trace to %s\n", path.c_str());
      ok = false;
    }
  }
  if (!opts.metrics.empty()) {
    trace::MetricsRegistry registry;
    engine.device().PublishMetrics(registry);
    PublishRunMetrics(result, device, registry);
    if (session != nullptr) {
      session->PublishMetrics(registry);
    }
    std::string path = PerEnginePath(opts.metrics, opts, kind);
    if (registry.WriteSnapshot(path)) {
      std::printf("  metrics snapshot written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "  could not write metrics to %s\n", path.c_str());
      ok = false;
    }
  }
  std::printf("%-16s %9.3f ms   map %7.3f (build %6.3f, query %6.3f)"
              "   gmas %8.3f (gather %6.3f, gemm %6.3f, scatter %6.3f)   launches %lld\n",
              EngineKindName(kind), device.CyclesToMillis(result.total.TotalCycles()),
              device.CyclesToMillis(result.total.MapCycles()),
              device.CyclesToMillis(result.total.map_build),
              device.CyclesToMillis(result.total.map_query),
              device.CyclesToMillis(result.total.GmasCycles()),
              device.CyclesToMillis(result.total.gather),
              device.CyclesToMillis(result.total.gemm),
              device.CyclesToMillis(result.total.scatter),
              static_cast<long long>(result.total.launches));
  if (opts.layers) {
    std::printf("%6s %8s %10s %10s %6s %6s %5s %5s %10s\n", "conv", "K/s", "inputs", "outputs",
                "Cin", "Cout", "gT", "sT", "time(ms)");
    for (const LayerRecord& layer : result.layers) {
      char ks[16];
      std::snprintf(ks, sizeof(ks), "%d/%d%s", layer.params.kernel_size, layer.params.stride,
                    layer.params.transposed ? "T" : "");
      std::printf("%6d %8s %10lld %10lld %6lld %6lld %5d %5d %10.3f\n", layer.conv_index, ks,
                  static_cast<long long>(layer.num_inputs),
                  static_cast<long long>(layer.num_outputs),
                  static_cast<long long>(layer.params.c_in),
                  static_cast<long long>(layer.params.c_out), layer.gather_tile,
                  layer.scatter_tile, device.CyclesToMillis(layer.cycles.TotalCycles()));
    }
  }
  return ok;
}

int Main(int argc, char** argv) {
  Options opts;
  const FlagCommand command = Command(&opts);
  const ParsedFlags parsed = ParseFlags(command, {argv + 1, argv + argc});
  if (!parsed.ok()) {
    return FlagExit(command, parsed);
  }
  const DeviceConfig& device = opts.device;
  const Network& net = opts.net;

  GeneratorConfig gen;
  gen.target_points = opts.points;
  gen.channels = net.in_channels;
  gen.seed = opts.seed;
  PointCloud cloud = GenerateCloud(opts.dataset, gen);
  GeneratorConfig tune = gen;
  tune.seed = opts.seed + 1;
  tune.target_points = std::max<int64_t>(opts.points / 4, 1000);
  PointCloud sample = GenerateCloud(opts.dataset, tune);

  std::printf("network %s | dataset %s (%lld points) | %s | %s mode\n", net.name.c_str(),
              DatasetName(opts.dataset), static_cast<long long>(cloud.num_points()),
              device.name.c_str(), opts.functional ? "functional" : "timing-only");

  bool ok = true;
  for (EngineKind kind : opts.engines) {
    ok = RunOne(kind, opts, net, cloud, sample, device) && ok;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) { return minuet::Main(argc, argv); }
