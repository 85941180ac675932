// minuet_serve: serving driver — replays or generates a request arrival
// trace against a deployment of one or more simulated devices and reports
// SLO accounting.
//
//   minuet_serve [--gpu 3090 | --pool 3090,a100,2080ti] [--routing least-loaded]
//                [--network tiny] [--engine minuet]
//                [--process poisson|mmpp|closed] [--rate RPS] [--requests N]
//                [--policy fifo|sjf|priority] [--queue-capacity N]
//                [--max-batch N] [--max-delay-us D] [--slo-us S] [--seed N]
//                [--arrivals in.json] [--dump-arrivals out.json]
//                [--json report.json] [--trace trace.json] [--metrics m.json]
//
// Every deployment is a fleet (src/serve/fleet.h): --pool lists one device
// preset per replica, routed by --routing, and --gpu X is the one-replica
// pool --pool X. The report carries a "fleet" section and the Chrome trace
// one serving-clock track per replica. Device metrics follow one naming rule
// (serve::PublishDeviceMetrics): a single replica publishes under "device/"
// with its session counters, more replicas under "dev<k>/".
//
// --stream switches to the video-rate mode: a recorded LiDAR-style sequence
// trace (minuet_dataset sequence) replayed as N closed-loop frame streams on
// the incremental kernel-map path, with per-frame deadline accounting and a
// frames-dropped SLO (src/serve/stream.h).
//
// Everything downstream of the flags is deterministic: arrivals come from
// seeded RNG streams, time is the virtual serving clock, and the cache model
// keys on each device's own addresses, so the --json report is byte-identical
// across invocations of the same command line, whatever other sinks are on.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/data/generators.h"
#include "src/data/sequence.h"
#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"
#include "src/serve/arrival.h"
#include "src/serve/fleet.h"
#include "src/serve/report.h"
#include "src/serve/reqtrace.h"
#include "src/serve/stream.h"
#include "src/serve/telemetry.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/check.h"
#include "src/util/json_writer.h"

namespace minuet {
namespace {

struct Options {
  std::string gpu = "3090";
  std::string network = "tiny";
  std::string engine = "minuet";
  bool fp16 = false;
  bool autotune = false;
  std::string pool;  // comma-separated gpu presets; non-empty = fleet mode
  serve::RoutingPolicy routing = serve::RoutingPolicy::kLeastLoaded;
  serve::TraceConfig arrival;
  serve::SchedulerConfig scheduler;
  std::string arrivals_in;    // replay this trace file instead of generating
  std::string dump_arrivals;  // write the generated trace and exit
  std::string stream_in;      // sequence trace file: video-rate stream mode
  serve::StreamServeConfig stream;
  std::string report_json;
  std::string trace_json;
  std::string metrics_json;
  std::string timeline_jsonl;  // streaming telemetry timeline (JSONL)
  std::string incident_json;   // flight-recorder incident dump
  std::string dump_requests;   // per-request causal-trace dump (JSONL)
  double telemetry_interval_us = 10000.0;
  double slo_target = 0.999;  // burn-rate error budget
};

// SIGINT requests a cooperative stop through the run's telemetry: the
// scheduler drains (sheds waiting work, finishes in-flight batches) and
// every report/timeline/incident sink still gets written. One relaxed
// atomic store, so the handler is async-signal-safe.
serve::ServeTelemetry* g_stop_target = nullptr;

void HandleSigint(int) {
  if (g_stop_target != nullptr) {
    g_stop_target->RequestStop();
  }
}

// Telemetry is active when any telemetry sink is requested.
std::unique_ptr<serve::ServeTelemetry> MakeTelemetry(const Options& opts) {
  if (opts.timeline_jsonl.empty() && opts.incident_json.empty()) {
    return nullptr;
  }
  serve::TelemetryConfig config;
  config.interval_us = opts.telemetry_interval_us;
  config.health.slo_target = opts.slo_target;
  auto telemetry = std::make_unique<serve::ServeTelemetry>(config);
  g_stop_target = telemetry.get();
  std::signal(SIGINT, HandleSigint);
  return telemetry;
}

[[noreturn]] void Usage() {
  std::fprintf(
      stderr,
      "usage: minuet_serve [--gpu 2070s|2080ti|3090|a100] [--network unet42|resnet21|tiny]\n"
      "                    [--engine minuet|torchsparse|minkowski] [--precision fp32|fp16]\n"
      "                    [--autotune 0|1]\n"
      "                    [--pool gpu[,gpu...]] "
      "[--routing round-robin|least-loaded|affinity|sjf-spillover]\n"
      "                    [--process poisson|mmpp|closed] [--rate RPS] [--requests N]\n"
      "                    [--seed N] [--burst-mult M] [--base-dwell-us D]\n"
      "                    [--burst-dwell-us D] [--clients N] [--think-us D]\n"
      "                    [--policy fifo|sjf|priority] [--queue-capacity N]\n"
      "                    [--max-batch N] [--max-delay-us D] [--slo-us S]\n"
      "                    [--arrivals in.json] [--dump-arrivals out.json]\n"
      "                    [--stream seq.json] [--streams N] [--frame-period-us P]\n"
      "                    [--frame-deadline-us D] [--drop-slo F] [--incremental 0|1]\n"
      "                    [--rebuild-threshold F]\n"
      "                    [--json report.json] [--trace trace.json] [--metrics m.json]\n"
      "                    [--timeline out.jsonl] [--incident out.json]\n"
      "                    [--dump-requests out.jsonl]\n"
      "                    [--telemetry-interval-us W] [--slo-target F]\n"
      "\n"
      "  --stream FILE         video-rate mode: replay a sequence trace (see\n"
      "                        minuet_dataset sequence) as N closed-loop frame streams\n"
      "                        with incremental kernel maps; frames whose execution\n"
      "                        cannot start within the deadline are dropped and the\n"
      "                        stream's incremental chain rebuilds\n"
      "  --streams N           concurrent streams, pinned stream%%replicas (default 1)\n"
      "  --frame-period-us P   sensor frame period (default 100000 = 10 Hz)\n"
      "  --frame-deadline-us D max start delay before a frame is dropped (default P)\n"
      "  --drop-slo F          frames-dropped SLO as a fraction (default 0.01)\n"
      "  --incremental 0|1     0 = full rebuild every frame (ablation; default 1)\n"
      "  --rebuild-threshold F churn fraction above which a frame full-rebuilds\n"
      "  --gpu PRESET          serve on one device: the one-replica pool --pool PRESET\n"
      "  --pool LIST           serve on a fleet of replicas, one per preset (overrides\n"
      "                        --gpu; see --routing)\n"
      "  --routing POLICY      fleet router; default least-loaded\n"
      "  --arrivals FILE       replay a recorded arrival trace (overrides --process)\n"
      "  --dump-arrivals FILE  write the generated arrival trace and exit\n"
      "  --json FILE           serving report (summary, per-request records, batches,\n"
      "                        embedded device metrics) — deterministic, diffable\n"
      "  --trace FILE          Chrome trace with the serving-clock track (tid 2)\n"
      "  --metrics FILE        metrics-registry snapshot (serve/* + device kernels)\n"
      "  --timeline FILE       streaming telemetry timeline, one JSON window per line\n"
      "  --incident FILE       flight-recorder incident dump (first firing alert, or a\n"
      "                        synthetic run-end/SIGINT trigger when none fired)\n"
      "  --telemetry-interval-us W  time-series window width (default 10000)\n"
      "  --slo-target F        burn-rate error budget target (default 0.999)\n"
      "  --dump-requests FILE  per-request causal phase traces, one JSON object per\n"
      "                        line (minuet_prof explain reads this). Off by default;\n"
      "                        recording is always on (the segment-sum invariant is\n"
      "                        CHECKed every run — see bench/hostperf serve_reqtrace_*\n"
      "                        for the per-request cost), the flag only writes the file\n");
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opts;
  bool deadline_set = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string inline_value;
    bool has_inline_value = false;
    if (size_t eq = arg.find('='); eq != std::string::npos && arg.rfind("--", 0) == 0) {
      inline_value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline_value = true;
    }
    auto next = [&]() -> std::string {
      if (has_inline_value) {
        return inline_value;
      }
      if (i + 1 >= argc) {
        Usage();
      }
      return argv[++i];
    };
    if (arg == "--gpu") {
      opts.gpu = next();
    } else if (arg == "--network") {
      opts.network = next();
    } else if (arg == "--engine") {
      opts.engine = next();
    } else if (arg == "--precision") {
      std::string p = next();
      if (p == "fp16") {
        opts.fp16 = true;
      } else if (p != "fp32") {
        Usage();
      }
    } else if (arg == "--autotune") {
      opts.autotune = std::atoi(next().c_str()) != 0;
    } else if (arg == "--pool") {
      opts.pool = next();
    } else if (arg == "--routing") {
      if (!serve::ParseRoutingPolicy(next(), &opts.routing)) {
        Usage();
      }
    } else if (arg == "--process") {
      if (!serve::ParseArrivalProcess(next(), &opts.arrival.process)) {
        Usage();
      }
    } else if (arg == "--rate") {
      opts.arrival.rate_rps = std::atof(next().c_str());
    } else if (arg == "--requests") {
      opts.arrival.num_requests = std::atoll(next().c_str());
    } else if (arg == "--seed") {
      opts.arrival.seed = static_cast<uint64_t>(std::atoll(next().c_str()));
      opts.scheduler.seed = opts.arrival.seed;
    } else if (arg == "--burst-mult") {
      opts.arrival.burst_multiplier = std::atof(next().c_str());
    } else if (arg == "--base-dwell-us") {
      opts.arrival.base_dwell_us = std::atof(next().c_str());
    } else if (arg == "--burst-dwell-us") {
      opts.arrival.burst_dwell_us = std::atof(next().c_str());
    } else if (arg == "--clients") {
      opts.arrival.num_clients = std::atoi(next().c_str());
    } else if (arg == "--think-us") {
      opts.arrival.think_time_us = std::atof(next().c_str());
    } else if (arg == "--policy") {
      if (!serve::ParseAdmissionPolicy(next(), &opts.scheduler.policy)) {
        Usage();
      }
    } else if (arg == "--queue-capacity") {
      opts.scheduler.queue_capacity = std::atoll(next().c_str());
    } else if (arg == "--max-batch") {
      opts.scheduler.max_batch_size = std::atoll(next().c_str());
    } else if (arg == "--max-delay-us") {
      opts.scheduler.max_queue_delay_us = std::atof(next().c_str());
    } else if (arg == "--slo-us") {
      opts.scheduler.slo_us = std::atof(next().c_str());
    } else if (arg == "--arrivals") {
      opts.arrivals_in = next();
    } else if (arg == "--dump-arrivals") {
      opts.dump_arrivals = next();
    } else if (arg == "--stream") {
      opts.stream_in = next();
    } else if (arg == "--streams") {
      opts.stream.num_streams = std::atoll(next().c_str());
    } else if (arg == "--frame-period-us") {
      opts.stream.frame_period_us = std::atof(next().c_str());
    } else if (arg == "--frame-deadline-us") {
      opts.stream.frame_deadline_us = std::atof(next().c_str());
      deadline_set = true;
    } else if (arg == "--drop-slo") {
      opts.stream.drop_slo = std::atof(next().c_str());
    } else if (arg == "--incremental") {
      opts.stream.incremental = std::atoi(next().c_str()) != 0;
    } else if (arg == "--rebuild-threshold") {
      opts.stream.rebuild_threshold = std::atof(next().c_str());
    } else if (arg == "--json") {
      opts.report_json = next();
    } else if (arg == "--trace") {
      opts.trace_json = next();
    } else if (arg == "--metrics") {
      opts.metrics_json = next();
    } else if (arg == "--timeline") {
      opts.timeline_jsonl = next();
    } else if (arg == "--incident") {
      opts.incident_json = next();
    } else if (arg == "--dump-requests") {
      opts.dump_requests = next();
    } else if (arg == "--telemetry-interval-us") {
      opts.telemetry_interval_us = std::atof(next().c_str());
    } else if (arg == "--slo-target") {
      opts.slo_target = std::atof(next().c_str());
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage();
    }
  }
  if (!deadline_set) {
    opts.stream.frame_deadline_us = opts.stream.frame_period_us;
  }
  return opts;
}

DeviceConfig ParseGpu(const std::string& name) {
  DeviceConfig device;
  if (!DeviceConfigForPreset(name, &device)) {
    std::fprintf(stderr, "unknown gpu: %s\n", name.c_str());
    Usage();
  }
  return device;
}

Network ParseNetwork(const std::string& name) {
  Network net;
  if (!NetworkForPreset(name, &net)) {
    std::fprintf(stderr, "unknown network: %s\n", name.c_str());
    Usage();
  }
  return net;
}

EngineKind ParseEngine(const std::string& name) {
  EngineKind kind = EngineKind::kMinuet;
  if (!EngineKindForPreset(name, &kind)) {
    std::fprintf(stderr, "unknown engine: %s\n", name.c_str());
    Usage();
  }
  return kind;
}

std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (begin <= list.size()) {
    size_t comma = list.find(',', begin);
    if (comma == std::string::npos) {
      comma = list.size();
    }
    if (comma > begin) {
      parts.push_back(list.substr(begin, comma - begin));
    }
    begin = comma + 1;
  }
  return parts;
}

// The engines a run serves on: one Prepare()d engine per device preset of
// --pool, or of --gpu when --pool is absent (a one-replica pool).
struct Deployment {
  serve::ServeReportContext context;  // context.device labels the deployment
  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<Engine*> raw;
};

Deployment BuildEngines(const Options& opts, const Network& net, EngineKind kind,
                        uint64_t seed, bool autotune) {
  const std::vector<std::string> presets =
      opts.pool.empty() ? std::vector<std::string>{opts.gpu} : SplitCommaList(opts.pool);
  if (presets.empty()) {
    std::fprintf(stderr, "--pool needs at least one device preset\n");
    Usage();
  }
  EngineConfig config;
  config.kind = kind;
  config.precision = opts.fp16 ? Precision::kFp16 : Precision::kFp32;
  config.functional = false;  // serving measures time; skip the arithmetic

  Deployment d;
  for (const std::string& preset : presets) {
    d.engines.push_back(std::make_unique<Engine>(config, ParseGpu(preset)));
    Engine& engine = *d.engines.back();
    engine.Prepare(net, seed);
    if (autotune && kind == EngineKind::kMinuet) {
      GeneratorConfig gen;
      gen.target_points = 2000;
      gen.channels = net.in_channels;
      gen.seed = seed + 1;
      engine.Autotune(GenerateCloud(DatasetKind::kRandom, gen));
    }
    d.raw.push_back(&engine);
  }
  // A lone replica is "the device" and goes by its DeviceConfig name.
  d.context.device = presets.size() == 1 ? d.engines[0]->device().config().name : opts.pool;
  d.context.network = net.name;
  d.context.engine = EngineKindName(kind);
  d.context.precision = opts.fp16 ? "fp16" : "fp32";
  return d;
}

// Writes every sink the flags ask for: Chrome trace, metrics snapshot,
// report, per-request dump, and the telemetry timeline and incident (when
// telemetry ran, also prints its alert tally). False when any write failed.
bool WriteSinks(const Options& opts, const trace::Tracer& tracer,
                const trace::MetricsRegistry& registry, const std::string& report,
                const std::vector<serve::RequestRecord>& requests, double slo_us,
                const serve::ServeTelemetry* telemetry) {
  bool ok = true;
  auto check = [&ok](bool written, const char* what, const std::string& path) {
    if (!written) {
      std::fprintf(stderr, "could not write %s to %s\n", what, path.c_str());
      ok = false;
    }
  };
  if (!opts.trace_json.empty()) {
    trace::Tracer::Install(nullptr);
    check(WriteChromeTrace(tracer, opts.trace_json), "trace", opts.trace_json);
  }
  if (!opts.metrics_json.empty()) {
    check(registry.WriteSnapshot(opts.metrics_json), "metrics", opts.metrics_json);
  }
  if (!opts.report_json.empty()) {
    check(WriteTextFile(opts.report_json, report), "report", opts.report_json);
  }
  if (!opts.dump_requests.empty()) {
    check(serve::WriteRequestDump(requests, slo_us, opts.dump_requests), "request dump",
          opts.dump_requests);
  }
  if (telemetry == nullptr) {
    return ok;
  }
  if (!opts.timeline_jsonl.empty()) {
    check(telemetry->series().WriteTimeline(opts.timeline_jsonl), "timeline",
          opts.timeline_jsonl);
  }
  if (!opts.incident_json.empty()) {
    // Prefer the incident frozen at the first firing alert; fall back to a
    // synthetic end-of-run (or SIGINT) capture so the flag always delivers.
    std::string incident = telemetry->incident_json();
    if (incident.empty()) {
      incident = telemetry->CaptureIncident(telemetry->stop_requested() ? "sigint" : "run_end");
    }
    check(WriteTextFile(opts.incident_json, incident), "incident", opts.incident_json);
  }
  int64_t firing = 0;
  for (const serve::AlertEvent& alert : telemetry->alerts()) {
    firing += alert.firing ? 1 : 0;
  }
  std::printf("telemetry: %zu windows (%.0f us each) | alerts %zu (%lld firing)%s\n",
              telemetry->series().closed().size(), telemetry->config().interval_us,
              telemetry->alerts().size(), static_cast<long long>(firing),
              telemetry->stop_requested() ? " | interrupted (drained)" : "");
  g_stop_target = nullptr;
  return ok;
}

// Request mode: serve a generated or replayed arrival trace on the fleet.
int FleetMain(Options opts) {
  const Network net = ParseNetwork(opts.network);
  Deployment d =
      BuildEngines(opts, net, ParseEngine(opts.engine), opts.arrival.seed, opts.autotune);

  trace::Tracer tracer;
  if (!opts.trace_json.empty()) {
    trace::Tracer::Install(&tracer);
  }

  serve::FleetConfig fleet_config;
  fleet_config.routing = opts.routing;
  fleet_config.scheduler = opts.scheduler;
  serve::FleetScheduler fleet(d.raw, fleet_config);
  std::unique_ptr<serve::ServeTelemetry> telemetry = MakeTelemetry(opts);
  fleet.AttachTelemetry(telemetry.get());
  serve::FleetResult result;
  if (!opts.arrivals_in.empty()) {
    std::vector<serve::Request> trace;
    std::string error;
    if (!serve::ReadArrivalTraceFile(opts.arrivals_in, &trace, &error)) {
      std::fprintf(stderr, "could not read %s: %s\n", opts.arrivals_in.c_str(), error.c_str());
      return 1;
    }
    opts.arrival.num_requests = static_cast<int64_t>(trace.size());
    result = fleet.Run(std::move(trace));
  } else {
    result = fleet.Run(opts.arrival);
  }

  trace::MetricsRegistry registry;
  serve::PublishFleetMetrics(result, registry);
  serve::PublishDeviceMetrics(d.raw, &fleet.replica(0).session(), registry);
  const std::string report =
      opts.report_json.empty()
          ? std::string()
          : serve::FleetReportJson(result, opts.arrival, d.context, &registry);
  const bool ok = WriteSinks(opts, tracer, registry, report, result.requests,
                             opts.scheduler.slo_us, telemetry.get());

  const serve::ServeSummary& s = result.summary.fleet;
  std::printf(
      "fleet %s | %s | %s | %s | routing %s | policy %s, queue %lld, batch %lld, delay %.0f us\n",
      d.context.device.c_str(), net.name.c_str(), d.context.engine.c_str(),
      d.context.precision.c_str(), serve::RoutingPolicyName(result.config.routing),
      serve::AdmissionPolicyName(opts.scheduler.policy),
      static_cast<long long>(opts.scheduler.queue_capacity),
      static_cast<long long>(opts.scheduler.max_batch_size),
      opts.scheduler.max_queue_delay_us);
  std::printf("offered %lld (%.0f rps) | completed %lld | shed %lld (%.1f%%) | "
              "batches %lld (mean %.2f) | warm %lld\n",
              static_cast<long long>(s.offered), s.offered_rps,
              static_cast<long long>(s.completed), static_cast<long long>(s.shed),
              100.0 * s.shed_rate, static_cast<long long>(s.num_batches), s.mean_batch_size,
              static_cast<long long>(s.warm_requests));
  std::printf("latency p50/p95/p99 %8.1f /%8.1f /%8.1f us | goodput %.1f rps "
              "(SLO %.0f us, attainment %.1f%%) | utilization %.1f%%\n",
              s.latency_p50_us, s.latency_p95_us, s.latency_p99_us, s.goodput_rps,
              opts.scheduler.slo_us, 100.0 * s.slo_attainment, 100.0 * s.utilization);
  for (const serve::DeviceSummary& dev : result.summary.devices) {
    std::printf("  dev%d %-8s | completed %6lld | shed %5lld | batches %5lld | "
                "plan hit %5.1f%% | util %5.1f%% | p99 %8.1f us\n",
                dev.device, dev.name.c_str(), static_cast<long long>(dev.summary.completed),
                static_cast<long long>(dev.summary.shed),
                static_cast<long long>(dev.summary.num_batches), 100.0 * dev.plan_hit_rate,
                100.0 * dev.summary.utilization, dev.summary.latency_p99_us);
  }
  std::printf("plan-cache hit asymmetry %.3f (min %.3f, max %.3f across %lld devices)\n",
              result.summary.plan_hit_asymmetry, result.summary.plan_hit_rate_min,
              result.summary.plan_hit_rate_max,
              static_cast<long long>(result.summary.devices.size()));
  return ok ? 0 : 1;
}

// Video-rate stream mode: replay a sequence trace as N closed-loop frame
// streams over the fleet. The Minuet sorted-map engine is required — the
// incremental path maintains sorted key arrays.
int StreamMain(const Options& opts) {
  Sequence sequence;
  std::string error;
  if (!ReadSequenceTraceFile(opts.stream_in, &sequence, &error)) {
    std::fprintf(stderr, "could not read %s: %s\n", opts.stream_in.c_str(), error.c_str());
    return 1;
  }
  if (opts.engine != "minuet") {
    std::fprintf(stderr, "--stream requires --engine minuet (incremental kernel maps)\n");
    return 2;
  }
  const Network net = ParseNetwork(opts.network);
  if (net.in_channels != sequence.config.channels) {
    std::fprintf(stderr, "network %s expects %lld input channels; sequence has %lld\n",
                 net.name.c_str(), static_cast<long long>(net.in_channels),
                 static_cast<long long>(sequence.config.channels));
    return 2;
  }
  Deployment d =
      BuildEngines(opts, net, EngineKind::kMinuet, sequence.config.seed, /*autotune=*/false);

  trace::Tracer tracer;
  if (!opts.trace_json.empty()) {
    trace::Tracer::Install(&tracer);
  }

  serve::StreamScheduler scheduler(d.raw, opts.stream);
  std::unique_ptr<serve::ServeTelemetry> telemetry = MakeTelemetry(opts);
  scheduler.AttachTelemetry(telemetry.get());
  serve::StreamServeResult result = scheduler.Run(sequence);

  trace::MetricsRegistry registry;
  serve::PublishStreamMetrics(result, registry);
  serve::PublishDeviceMetrics(d.raw, /*session=*/nullptr, registry);
  const std::string report = opts.report_json.empty()
                                 ? std::string()
                                 : serve::StreamReportJson(result, d.context, &registry);
  const bool ok = WriteSinks(opts, tracer, registry, report, result.requests,
                             opts.stream.frame_deadline_us, telemetry.get());

  const serve::StreamServeSummary& s = result.summary;
  std::printf(
      "stream %s | %s | %s | %lld stream(s) x %lld frames @ %.0f us period "
      "(deadline %.0f us) | %s maps\n",
      d.context.device.c_str(), net.name.c_str(), d.context.precision.c_str(),
      static_cast<long long>(result.config.num_streams),
      static_cast<long long>(result.sequence.num_frames), result.config.frame_period_us,
      result.config.frame_deadline_us,
      result.config.incremental ? "incremental" : "full-rebuild");
  std::printf("frames offered %lld | completed %lld | dropped %lld (%.2f%%, SLO %.2f%%: %s)\n",
              static_cast<long long>(s.frames_offered),
              static_cast<long long>(s.frames_completed),
              static_cast<long long>(s.frames_dropped), 100.0 * s.drop_rate,
              100.0 * s.drop_slo, s.drop_slo_ok ? "ok" : "VIOLATED");
  std::printf("map path: %lld incremental, %lld rebuilt | latency p50/p95/p99 "
              "%8.1f /%8.1f /%8.1f us | utilization %.1f%%\n",
              static_cast<long long>(s.frames_incremental),
              static_cast<long long>(s.frames_rebuilt), s.serve.latency_p50_us,
              s.serve.latency_p95_us, s.serve.latency_p99_us, 100.0 * s.serve.utilization);
  for (const serve::StreamSummary& stream : result.streams) {
    std::printf("  stream%lld dev%d | frames %5lld | dropped %4lld | incremental %5lld | "
                "rebuilt %4lld | p99 %8.1f us\n",
                static_cast<long long>(stream.stream), stream.device,
                static_cast<long long>(stream.frames),
                static_cast<long long>(stream.dropped),
                static_cast<long long>(stream.frames_incremental),
                static_cast<long long>(stream.frames_rebuilt), stream.latency_p99_us);
  }
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options opts = Parse(argc, argv);
  if (!opts.stream_in.empty()) {
    return StreamMain(opts);
  }
  if (!opts.dump_arrivals.empty()) {
    std::vector<serve::Request> trace = serve::GenerateArrivalTrace(opts.arrival);
    if (!serve::WriteArrivalTrace(trace, opts.dump_arrivals)) {
      std::fprintf(stderr, "could not write arrival trace to %s\n", opts.dump_arrivals.c_str());
      return 1;
    }
    std::printf("%lld arrivals (%s, %.0f rps) written to %s\n",
                static_cast<long long>(trace.size()),
                serve::ArrivalProcessName(opts.arrival.process), opts.arrival.rate_rps,
                opts.dump_arrivals.c_str());
    return 0;
  }
  return FleetMain(std::move(opts));
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) { return minuet::Main(argc, argv); }
