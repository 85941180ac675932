#include "src/serve/report.h"

#include "src/trace/metrics.h"
#include "src/util/json_writer.h"

namespace minuet {
namespace serve {

namespace {

void WriteContext(JsonWriter& w, const ServeReportContext& context) {
  w.Key("context");
  w.BeginObject();
  w.KV("device", context.device);
  w.KV("network", context.network);
  w.KV("engine", context.engine);
  w.KV("precision", context.precision);
  w.EndObject();
}

void WriteArrival(JsonWriter& w, const TraceConfig& arrival) {
  w.Key("arrival");
  w.BeginObject();
  w.KV("process", ArrivalProcessName(arrival.process));
  w.KV("rate_rps", arrival.rate_rps);
  w.KV("num_requests", arrival.num_requests);
  w.KV("seed", arrival.seed);
  if (arrival.process == ArrivalProcess::kMmpp) {
    w.KV("burst_multiplier", arrival.burst_multiplier);
    w.KV("base_dwell_us", arrival.base_dwell_us);
    w.KV("burst_dwell_us", arrival.burst_dwell_us);
  }
  if (arrival.process == ArrivalProcess::kClosedLoop) {
    w.KV("num_clients", static_cast<int64_t>(arrival.num_clients));
    w.KV("think_time_us", arrival.think_time_us);
  }
  w.EndObject();
}

void WriteConfig(JsonWriter& w, const SchedulerConfig& config) {
  w.Key("config");
  w.BeginObject();
  w.KV("policy", AdmissionPolicyName(config.policy));
  w.KV("queue_capacity", config.queue_capacity);
  w.KV("max_batch_size", config.max_batch_size);
  w.KV("max_queue_delay_us", config.max_queue_delay_us);
  w.KV("slo_us", config.slo_us);
  w.EndObject();
}

void WriteSummaryFields(JsonWriter& w, const ServeSummary& s) {
  w.KV("offered", s.offered);
  w.KV("admitted", s.admitted);
  w.KV("shed", s.shed);
  w.KV("completed", s.completed);
  w.KV("num_batches", s.num_batches);
  w.KV("warm_requests", s.warm_requests);
  w.KV("duration_us", s.duration_us);
  w.KV("server_busy_us", s.server_busy_us);
  w.KV("utilization", s.utilization);
  w.KV("offered_rps", s.offered_rps);
  w.KV("throughput_rps", s.throughput_rps);
  w.KV("goodput_rps", s.goodput_rps);
  w.KV("shed_rate", s.shed_rate);
  w.KV("slo_attainment", s.slo_attainment);
  w.KV("mean_batch_size", s.mean_batch_size);
  w.KV("queue_p50_us", s.queue_p50_us);
  w.KV("queue_p95_us", s.queue_p95_us);
  w.KV("queue_p99_us", s.queue_p99_us);
  w.KV("service_p50_us", s.service_p50_us);
  w.KV("service_p95_us", s.service_p95_us);
  w.KV("service_p99_us", s.service_p99_us);
  w.KV("latency_p50_us", s.latency_p50_us);
  w.KV("latency_p95_us", s.latency_p95_us);
  w.KV("latency_p99_us", s.latency_p99_us);
}

void WriteSummary(JsonWriter& w, const ServeSummary& s) {
  w.Key("summary");
  w.BeginObject();
  WriteSummaryFields(w, s);
  w.EndObject();
}

void WriteRequests(JsonWriter& w, const std::vector<RequestRecord>& requests) {
  w.Key("requests");
  w.BeginArray();
  for (const RequestRecord& record : requests) {
    w.BeginObject();
    w.KV("id", record.request.id);
    w.KV("arrival_us", record.request.arrival_us);
    w.KV("points", record.request.points);
    w.KV("priority", record.request.priority);
    w.KV("batch_class", record.request.batch_class);
    w.KV("device", static_cast<int64_t>(record.device));
    w.KV("shed", record.shed);
    if (!record.shed) {
      w.KV("warm", record.warm);
      w.KV("batch", record.batch_id);
      w.KV("queue_us", record.QueueUs());
      w.KV("service_us", record.ServiceUs());
      w.KV("latency_us", record.LatencyUs());
      // Causal phase segments (integer ns; sum == e2e_ns bit-exactly — the
      // fleet loop CHECKs the invariant when it records them).
      const PhaseTrace& t = record.trace;
      w.KV("e2e_ns", t.e2e_ns);
      w.KV("server_wait_ns", t.server_wait_ns);
      w.KV("batch_delay_ns", t.batch_delay_ns);
      w.KV("map_ns", t.map_ns);
      w.KV("map_delta_ns", t.map_delta_ns);
      w.KV("gather_ns", t.gather_ns);
      w.KV("gemm_ns", t.gemm_ns);
      w.KV("scatter_ns", t.scatter_ns);
      w.KV("exec_other_ns", t.exec_other_ns);
      w.KV("stream_wait_ns", t.stream_wait_ns);
    }
    w.EndObject();
  }
  w.EndArray();
}

void WriteBatches(JsonWriter& w, const std::vector<BatchRecord>& batches) {
  w.Key("batches");
  w.BeginArray();
  for (const BatchRecord& batch : batches) {
    w.BeginObject();
    w.KV("id", batch.id);
    w.KV("class", batch.batch_class);
    w.KV("device", static_cast<int64_t>(batch.device));
    w.KV("size", batch.size);
    w.KV("dispatch_us", NsToUs(batch.dispatch_ns));
    w.KV("service_us", NsToUs(batch.completion_ns - batch.dispatch_ns));
    w.KV("service_cycles", batch.service_cycles);
    w.KV("serial_cycles", batch.serial_cycles);
    w.KV("overlap", batch.Overlap());
    w.EndObject();
  }
  w.EndArray();
}

void WriteDeviceMetrics(JsonWriter& w, const trace::MetricsRegistry* registry) {
  if (registry != nullptr) {
    w.Key("device_metrics");
    w.RawValue(registry->SnapshotJson());
  }
}

// Alert edges from the run's telemetry (empty array without telemetry —
// the section is always present so report consumers need no feature probe).
void WriteAlerts(JsonWriter& w, const std::vector<AlertEvent>& alerts) {
  int64_t firing = 0;
  for (const AlertEvent& alert : alerts) {
    firing += alert.firing ? 1 : 0;
  }
  w.Key("alerts");
  w.BeginObject();
  w.KV("count", static_cast<int64_t>(alerts.size()));
  w.KV("firing", firing);
  w.Key("events");
  w.BeginArray();
  for (const AlertEvent& alert : alerts) {
    w.RawValue(AlertJson(alert));
  }
  w.EndArray();
  w.EndObject();
}

// Aggregate causal blame: total ns per phase over completed requests, plus
// each phase's share of total e2e. The per-request decomposition lives in
// the request rows (and in the --dump-requests JSONL that minuet_prof
// explain reads); this section is the one-look answer to "where did the
// latency of this run go".
void WriteBlame(JsonWriter& w, const std::vector<RequestRecord>& requests) {
  struct Phase {
    const char* key;
    int64_t PhaseTrace::* field;
  };
  static constexpr Phase kPhases[] = {
      {"server_wait_ns", &PhaseTrace::server_wait_ns},
      {"batch_delay_ns", &PhaseTrace::batch_delay_ns},
      {"map_ns", &PhaseTrace::map_ns},
      {"map_delta_ns", &PhaseTrace::map_delta_ns},
      {"gather_ns", &PhaseTrace::gather_ns},
      {"gemm_ns", &PhaseTrace::gemm_ns},
      {"scatter_ns", &PhaseTrace::scatter_ns},
      {"exec_other_ns", &PhaseTrace::exec_other_ns},
      {"stream_wait_ns", &PhaseTrace::stream_wait_ns},
  };
  int64_t completed = 0;
  int64_t e2e_total = 0;
  int64_t phase_total[9] = {};
  for (const RequestRecord& record : requests) {
    if (record.shed) {
      continue;
    }
    ++completed;
    e2e_total += record.trace.e2e_ns;
    for (size_t i = 0; i < 9; ++i) {
      phase_total[i] += record.trace.*kPhases[i].field;
    }
  }
  w.Key("blame");
  w.BeginObject();
  w.KV("completed", completed);
  w.KV("e2e_total_ns", e2e_total);
  for (size_t i = 0; i < 9; ++i) {
    w.KV(kPhases[i].key, phase_total[i]);
  }
  for (size_t i = 0; i < 9; ++i) {
    const std::string key = std::string(kPhases[i].key) + "_share";
    const double share = e2e_total > 0 ? static_cast<double>(phase_total[i]) /
                                             static_cast<double>(e2e_total)
                                       : 0.0;
    w.KV(key, share);
  }
  w.EndObject();
}

}  // namespace

std::string StreamReportJson(const StreamServeResult& result,
                             const ServeReportContext& context,
                             const trace::MetricsRegistry* registry) {
  JsonWriter w;
  w.BeginObject();
  w.KV("stream_report", 1);
  WriteContext(w, context);

  // The workload identity: which seeded sequence was replayed, on what clock.
  w.Key("sequence");
  w.BeginObject();
  w.KV("dataset", DatasetName(result.sequence.dataset));
  w.KV("base_points", result.sequence.base_points);
  w.KV("channels", result.sequence.channels);
  w.KV("num_frames", result.sequence.num_frames);
  w.KV("seed", result.sequence.seed);
  w.KV("churn_rate", result.sequence.churn_rate);
  w.KV("max_step", static_cast<int64_t>(result.sequence.max_step));
  w.EndObject();

  w.Key("config");
  w.BeginObject();
  w.KV("num_streams", result.config.num_streams);
  w.KV("frame_period_us", result.config.frame_period_us);
  w.KV("frame_deadline_us", result.config.frame_deadline_us);
  w.KV("drop_slo", result.config.drop_slo);
  w.KV("incremental", result.config.incremental);
  w.KV("rebuild_threshold", kRebuildChurn);
  w.EndObject();

  WriteSummary(w, result.summary.serve);

  // The scenario's headline: frame and drop accounting plus the
  // frames-dropped SLO verdict (the map-reuse counters ride along so CI can
  // assert the incremental path actually engaged).
  w.Key("stream_summary");
  w.BeginObject();
  w.KV("frames_offered", result.summary.frames_offered);
  w.KV("frames_completed", result.summary.frames_completed);
  w.KV("frames_dropped", result.summary.frames_dropped);
  w.KV("frames_incremental", result.summary.frames_incremental);
  w.KV("frames_rebuilt", result.summary.frames_rebuilt);
  w.KV("drop_rate", result.summary.drop_rate);
  w.KV("drop_slo", result.summary.drop_slo);
  w.KV("drop_slo_ok", result.summary.drop_slo_ok);
  w.EndObject();

  w.Key("streams");
  w.BeginArray();
  for (const StreamSummary& stream : result.streams) {
    w.BeginObject();
    w.KV("stream", stream.stream);
    w.KV("device", static_cast<int64_t>(stream.device));
    w.KV("frames", stream.frames);
    w.KV("completed", stream.completed);
    w.KV("dropped", stream.dropped);
    w.KV("frames_incremental", stream.frames_incremental);
    w.KV("frames_rebuilt", stream.frames_rebuilt);
    w.KV("latency_p50_us", stream.latency_p50_us);
    w.KV("latency_p99_us", stream.latency_p99_us);
    w.EndObject();
  }
  w.EndArray();

  WriteRequests(w, result.requests);
  WriteBatches(w, result.batches);
  WriteBlame(w, result.requests);
  WriteAlerts(w, result.alerts);
  WriteDeviceMetrics(w, registry);
  w.EndObject();
  return w.TakeString();
}

std::string FleetReportJson(const FleetResult& result, const TraceConfig& arrival,
                            const ServeReportContext& context,
                            const trace::MetricsRegistry* registry) {
  const FleetSummary& fs = result.summary;
  JsonWriter w;
  w.BeginObject();
  w.KV("serve_report", 1);
  WriteContext(w, context);
  WriteArrival(w, arrival);
  WriteConfig(w, result.config.scheduler);
  WriteSummary(w, fs.fleet);
  WriteRequests(w, result.requests);
  WriteBatches(w, result.batches);
  WriteBlame(w, result.requests);
  WriteAlerts(w, result.alerts);

  w.Key("fleet");
  w.BeginObject();
  w.KV("routing", RoutingPolicyName(result.config.routing));
  w.KV("num_devices", static_cast<int64_t>(fs.devices.size()));
  w.KV("plan_hit_rate_min", fs.plan_hit_rate_min);
  w.KV("plan_hit_rate_max", fs.plan_hit_rate_max);
  w.KV("plan_hit_asymmetry", fs.plan_hit_asymmetry);
  w.Key("devices");
  w.BeginArray();
  for (const DeviceSummary& dev : fs.devices) {
    w.BeginObject();
    w.KV("device", static_cast<int64_t>(dev.device));
    w.KV("name", dev.name);
    w.KV("plan_hits", static_cast<int64_t>(dev.plan_hits));
    w.KV("plan_misses", static_cast<int64_t>(dev.plan_misses));
    w.KV("plan_hit_rate", dev.plan_hit_rate);
    w.KV("pool_reuses", static_cast<int64_t>(dev.pool_reuses));
    w.KV("pool_allocations", static_cast<int64_t>(dev.pool_allocations));
    w.Key("summary");
    w.BeginObject();
    WriteSummaryFields(w, dev.summary);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("tiers");
  w.BeginArray();
  for (const TierSummary& tier : fs.tiers) {
    w.BeginObject();
    w.KV("priority", static_cast<int64_t>(tier.priority));
    w.KV("offered", tier.offered);
    w.KV("completed", tier.completed);
    w.KV("shed", tier.shed);
    w.KV("latency_p50_us", tier.latency_p50_us);
    w.KV("latency_p99_us", tier.latency_p99_us);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  WriteDeviceMetrics(w, registry);
  w.EndObject();
  return w.TakeString();
}

}  // namespace serve
}  // namespace minuet
