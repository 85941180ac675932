// minuet_serve: serving driver — replays or generates a request arrival
// trace against a deployment of one or more simulated devices and reports
// SLO accounting. `minuet_serve --help` lists the flags.
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
#include "src/util/flags.h"
#include "src/util/json_writer.h"

namespace minuet {
namespace {

struct Options {
  DeviceConfig gpu = MakeRtx3090();
  Network net = MakeTinyUNet(4);
  EngineKind engine = EngineKind::kMinuet;
  bool fp16 = false;
  bool autotune = false;
  std::vector<DeviceConfig> pool;  // one per replica; non-empty = fleet mode
  std::string pool_list;           // --pool as given
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
  serve::TelemetryConfig telemetry;
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
  auto telemetry = std::make_unique<serve::ServeTelemetry>(opts.telemetry);
  g_stop_target = telemetry.get();
  std::signal(SIGINT, HandleSigint);
  return telemetry;
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

FlagCommand Command(Options* o) {
  serve::TraceConfig& a = o->arrival;
  serve::SchedulerConfig& q = o->scheduler;
  serve::StreamServeConfig& st = o->stream;
  return {
      "minuet_serve [flags]",
      {{"gpu", "2070s|2080ti|3090|a100",
        "serve on one device: the one-replica pool --pool PRESET (default 3090)",
        Choice(DeviceConfigForPreset, &o->gpu)},
       {"network", "unet42|resnet21|tiny", "network (default tiny)",
        Choice(NetworkForPreset, &o->net)},
       {"engine", "minuet|torchsparse|minkowski", "engine (default minuet)",
        Choice(EngineKindForPreset, &o->engine)},
       {"precision", "fp32|fp16", "arithmetic precision (default fp32)",
        [o](const std::string& name) {
          o->fp16 = name == "fp16";
          return o->fp16 || name == "fp32";
        }},
       {"autotune", "0|1", "autotune Minuet's tiles on each replica (default 0)",
        FlagBit{&o->autotune}},
       {"pool", "2070s|2080ti|3090|a100[,...]",
        "serve on a fleet of replicas, one per preset (overrides --gpu)",
        [o](const std::string& list) {
          o->pool.clear();
          o->pool_list = list;
          for (const std::string& preset : SplitCommaList(list)) {
            DeviceConfig device;
            if (!DeviceConfigForPreset(preset, &device)) {
              return false;
            }
            o->pool.push_back(device);
          }
          return !o->pool.empty();
        }},
       {"routing", "round-robin|least-loaded|affinity|sjf-spillover",
        "fleet router (default least-loaded)", Choice(serve::ParseRoutingPolicy, &o->routing)},
       {"process", "poisson|mmpp|closed", "arrival process (default poisson)",
        Choice(serve::ParseArrivalProcess, &a.process)},
       {"rate", "RPS", "open-loop mean arrival rate", &a.rate_rps, FlagBound::kPositive},
       {"requests", "N", "requests to serve", &a.num_requests, FlagBound::kZero},
       {"seed", "N", "arrival and closed-loop client seed", &a.seed},
       {"burst-mult", "M", "mmpp burst-state rate multiplier", &a.burst_multiplier,
        FlagBound::kPositive},
       {"base-dwell-us", "D", "mmpp mean dwell in the base state", &a.base_dwell_us,
        FlagBound::kPositive},
       {"burst-dwell-us", "D", "mmpp mean dwell in the burst state", &a.burst_dwell_us,
        FlagBound::kPositive},
       {"clients", "N", "closed-loop clients", &a.num_clients, FlagBound::kPositive},
       {"think-us", "D", "closed-loop mean think time per client", &a.think_time_us,
        FlagBound::kPositive},
       {"policy", "fifo|sjf|priority", "admission policy (default fifo)",
        Choice(serve::ParseAdmissionPolicy, &q.policy)},
       {"queue-capacity", "N", "pending requests held; later arrivals are shed",
        &q.queue_capacity, FlagBound::kZero},
       {"max-batch", "N", "largest batch", &q.max_batch_size, FlagBound::kPositive},
       {"max-delay-us", "D", "partial-batch dispatch timer", &q.max_queue_delay_us,
        FlagBound::kZero},
       {"slo-us", "S", "end-to-end latency target for goodput", &q.slo_us},
       {"arrivals", "FILE", "replay a recorded arrival trace (overrides --process)",
        &o->arrivals_in},
       {"dump-arrivals", "FILE", "write the generated arrival trace and exit",
        &o->dump_arrivals},
       {"stream", "FILE",
        "video-rate mode: replay a sequence trace (see minuet_dataset sequence)\n"
        "as N closed-loop frame streams with incremental kernel maps; frames\n"
        "whose execution cannot start within the deadline are dropped and the\n"
        "stream's incremental chain rebuilds",
        &o->stream_in},
       {"streams", "N", "concurrent streams, pinned stream%replicas (default 1)",
        &st.num_streams, FlagBound::kPositive},
       {"frame-period-us", "P", "sensor frame period (default 100000 = 10 Hz)",
        &st.frame_period_us, FlagBound::kPositive},
       {"frame-deadline-us", "D", "max start delay before a frame is dropped (default P)",
        &st.frame_deadline_us, FlagBound::kZero},
       {"drop-slo", "F", "frames-dropped SLO as a fraction (default 0.01)", &st.drop_slo,
        FlagBound::kZero},
       {"incremental", "0|1",
        "1 = delta path while churn <= 0.5, 0 = full rebuild every frame\n"
        "(ablation; default 1)",
        FlagBit{&st.incremental}},
       {"json", "FILE",
        "serving report (summary, per-request records, batches, embedded\n"
        "device metrics): deterministic, diffable",
        &o->report_json},
       {"trace", "FILE", "Chrome trace with the serving-clock track (tid 2)", &o->trace_json},
       {"metrics", "FILE", "metrics-registry snapshot (serve/* + device kernels)",
        &o->metrics_json},
       {"timeline", "FILE", "streaming telemetry timeline, one JSON window per line",
        &o->timeline_jsonl},
       {"incident", "FILE",
        "flight-recorder incident dump (first firing alert, or a synthetic\n"
        "run-end/SIGINT trigger when none fired)",
        &o->incident_json},
       {"dump-requests", "FILE",
        "per-request causal phase traces, one JSON object per line (minuet_prof\n"
        "explain reads this); recording is always on, the flag writes the file",
        &o->dump_requests},
       {"telemetry-interval-us", "W", "time-series window width (default 10000)",
        &o->telemetry.interval_us, FlagBound::kPositive}}};
}

// The engines a run serves on: one Prepare()d engine per device preset of
// --pool, or of --gpu when --pool is absent (a one-replica pool).
struct Deployment {
  serve::ServeReportContext context;  // context.device labels the deployment
  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<Engine*> raw;
};

Deployment BuildEngines(const Options& opts, uint64_t seed, bool autotune) {
  const std::vector<DeviceConfig> devices =
      opts.pool.empty() ? std::vector<DeviceConfig>{opts.gpu} : opts.pool;
  const Network& net = opts.net;
  const EngineKind kind = opts.engine;
  EngineConfig config;
  config.kind = kind;
  config.precision = opts.fp16 ? Precision::kFp16 : Precision::kFp32;
  config.functional = false;  // serving measures time; skip the arithmetic

  Deployment d;
  for (const DeviceConfig& device : devices) {
    d.engines.push_back(std::make_unique<Engine>(config, device));
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
  d.context.device = devices.size() == 1 ? d.engines[0]->device().config().name : opts.pool_list;
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
  const Network& net = opts.net;
  Deployment d = BuildEngines(opts, opts.arrival.seed, opts.autotune);

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
  if (opts.engine != EngineKind::kMinuet) {
    std::fprintf(stderr, "--stream requires --engine minuet (incremental kernel maps)\n");
    return 2;
  }
  const Network& net = opts.net;
  if (net.in_channels != sequence.config.channels) {
    std::fprintf(stderr, "network %s expects %lld input channels; sequence has %lld\n",
                 net.name.c_str(), static_cast<long long>(net.in_channels),
                 static_cast<long long>(sequence.config.channels));
    return 2;
  }
  Deployment d = BuildEngines(opts, sequence.config.seed, /*autotune=*/false);

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
  Options opts;
  opts.stream.frame_deadline_us = -1.0;  // not given: one frame period
  const FlagCommand command = Command(&opts);
  const ParsedFlags parsed = ParseFlags(command, {argv + 1, argv + argc});
  if (!parsed.ok()) {
    return FlagExit(command, parsed);
  }
  opts.scheduler.seed = opts.arrival.seed;  // --seed sets both
  if (opts.stream.frame_deadline_us < 0.0) {
    opts.stream.frame_deadline_us = opts.stream.frame_period_us;
  }
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
