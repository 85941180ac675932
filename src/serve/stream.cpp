#include "src/serve/stream.h"

#include <utility>

#include "src/serve/fleet.h"
#include "src/serve/telemetry.h"
#include "src/trace/metrics.h"
#include "src/util/check.h"
#include "src/util/summary.h"

namespace minuet {
namespace serve {

StreamScheduler::StreamScheduler(std::vector<Engine*> engines,
                                 const StreamServeConfig& config)
    : config_(config), engines_(std::move(engines)) {
  MINUET_CHECK(!engines_.empty()) << "stream serving needs at least one replica";
  MINUET_CHECK_GE(config.num_streams, 1);
  MINUET_CHECK_GT(config.frame_period_us, 0.0);
  MINUET_CHECK_GE(config.frame_deadline_us, 0.0);
  MINUET_CHECK_GE(config.drop_slo, 0.0);
  for (Engine* engine : engines_) {
    MINUET_CHECK(engine != nullptr);
    MINUET_CHECK_EQ(engine->network().in_channels, engines_[0]->network().in_channels)
        << "stream replicas must share an input-channel count";
  }
  for (int64_t s = 0; s < config.num_streams; ++s) {
    Stream stream;
    stream.device = static_cast<int>(s % static_cast<int64_t>(engines_.size()));
    stream.session = std::make_unique<SequenceSession>(
        *engines_[static_cast<size_t>(stream.device)], config.incremental);
    streams_.push_back(std::move(stream));
  }
}

StreamServeResult StreamScheduler::Run(const Sequence& sequence) {
  const int64_t num_frames = static_cast<int64_t>(sequence.frames.size());
  const int64_t num_streams = config_.num_streams;
  MINUET_CHECK_GT(num_frames, 0) << "cannot serve an empty sequence";
  MINUET_CHECK_EQ(engines_[0]->network().in_channels, sequence.config.channels)
      << "sequence channel count must match the replica networks";

  // One frame per dispatch (batching across streams would let a fat batch
  // blow every member's deadline), FIFO, a queue no tick can overflow, and
  // the frame deadline as the latency SLO.
  FleetConfig fleet_config;
  SchedulerConfig& scfg = fleet_config.scheduler;
  scfg.policy = AdmissionPolicy::kFifo;
  scfg.queue_capacity = num_frames * num_streams;
  scfg.max_batch_size = 1;
  scfg.max_queue_delay_us = 0.0;
  scfg.slo_us = config_.frame_deadline_us;

  // The frames as an ordinary request trace: frame f of stream s arrives at
  // f * frame_period_us as request f * num_streams + s.
  std::vector<Request> trace;
  trace.reserve(static_cast<size_t>(num_frames * num_streams));
  for (int64_t frame = 0; frame < num_frames; ++frame) {
    for (int64_t stream = 0; stream < num_streams; ++stream) {
      Request request;
      request.id = frame * num_streams + stream;
      request.arrival_us = static_cast<double>(frame) * config_.frame_period_us;
      request.batch_class = static_cast<int>(stream);
      request.dataset = sequence.config.dataset;
      request.points = sequence.frames[static_cast<size_t>(frame)].cloud.num_points();
      request.cloud_seed = sequence.config.seed;
      request.client = static_cast<int>(stream);
      trace.push_back(request);
    }
  }

  // Every chain restarts with the pass (frame 0 has no predecessor here).
  // Resetting them all up front releases the retained key arrays before any
  // frame runs, so each pass starts from the same device memory state.
  for (Stream& stream : streams_) {
    stream.session->ResetChain();
  }

  std::vector<StreamSummary> stream_summaries(static_cast<size_t>(num_streams));
  ServeHooks hooks;
  hooks.route = [&](const Request& request) {
    return streams_[static_cast<size_t>(request.client)].device;
  };
  hooks.execute = [&](int, const Request& request, int64_t now_ns) {
    const int64_t frame = request.id / num_streams;
    const SequenceFrame& sf = sequence.frames[static_cast<size_t>(frame)];
    SequenceSession& session = *streams_[static_cast<size_t>(request.client)].session;
    const SessionStats before = session.session().stats();
    const FrameRunResult fr =
        frame == 0 ? session.RunFrame(sf.cloud)
                   : session.RunFrame(sf.cloud, sf.motion, sf.deleted, sf.inserted);
    StreamSummary& summary = stream_summaries[static_cast<size_t>(request.client)];
    ++(fr.incremental ? summary.frames_incremental : summary.frames_rebuilt);
    if (telemetry_ != nullptr) {
      telemetry_->series().Count(
          fr.incremental ? "stream/frames_incremental" : "stream/frames_rebuilt",
          NsToUs(now_ns), 1.0);
    }
    return MeasureMember(fr.run.total, before, session.session().stats());
  };
  // A stale frame is dropped, which breaks its stream's incremental chain:
  // the stream's next served frame full-rebuilds.
  hooks.deadline_us = config_.frame_deadline_us;
  hooks.on_drop = [&](const Request& request, int64_t now_ns) {
    streams_[static_cast<size_t>(request.client)].session->ResetChain();
    if (telemetry_ != nullptr) {
      telemetry_->series().Count("stream/frames_dropped", NsToUs(now_ns), 1.0);
    }
  };

  FleetScheduler fleet(engines_, fleet_config);
  fleet.AttachTelemetry(telemetry_);
  FleetResult served = fleet.Run(std::move(trace), hooks);

  StreamServeResult result;
  result.config = config_;
  result.sequence = sequence.config;
  result.requests = std::move(served.requests);
  result.batches = std::move(served.batches);
  result.alerts = std::move(served.alerts);

  StreamServeSummary& summary = result.summary;
  summary.serve = served.summary.fleet;

  std::vector<std::vector<double>> stream_latency(static_cast<size_t>(num_streams));
  for (const RequestRecord& record : result.requests) {
    const size_t s = static_cast<size_t>(record.request.client);
    StreamSummary& stream = stream_summaries[s];
    ++stream.frames;
    if (record.shed) {
      ++stream.dropped;
    } else {
      ++stream.completed;
      stream_latency[s].push_back(record.LatencyUs());
    }
  }
  for (size_t s = 0; s < stream_summaries.size(); ++s) {
    StreamSummary& stream = stream_summaries[s];
    stream.stream = static_cast<int64_t>(s);
    stream.device = streams_[s].device;
    stream.latency_p50_us = Percentile(stream_latency[s], 50.0);
    stream.latency_p99_us = Percentile(stream_latency[s], 99.0);
    summary.frames_offered += stream.frames;
    summary.frames_completed += stream.completed;
    summary.frames_dropped += stream.dropped;
    summary.frames_incremental += stream.frames_incremental;
    summary.frames_rebuilt += stream.frames_rebuilt;
  }
  summary.drop_rate = SafeDiv(static_cast<double>(summary.frames_dropped),
                              static_cast<double>(summary.frames_offered));
  summary.drop_slo = config_.drop_slo;
  summary.drop_slo_ok = summary.drop_rate <= config_.drop_slo;
  result.streams = std::move(stream_summaries);
  return result;
}

void PublishStreamMetrics(const StreamServeResult& result, trace::MetricsRegistry& registry) {
  // The aggregate reuses the standard serving surface, so dashboards built
  // on "serve/..." read video-rate runs unchanged (frames queue FIFO).
  PublishServeMetrics(SchedulerConfig{}, result.requests, result.summary.serve, registry);

  const StreamServeSummary& s = result.summary;
  registry.GetCounter("serve/stream/streams").Set(result.config.num_streams);
  registry.GetCounter("serve/stream/frames_offered").Set(s.frames_offered);
  registry.GetCounter("serve/stream/frames_completed").Set(s.frames_completed);
  registry.GetCounter("serve/stream/frames_dropped").Set(s.frames_dropped);
  registry.GetCounter("serve/stream/frames_incremental").Set(s.frames_incremental);
  registry.GetCounter("serve/stream/frames_rebuilt").Set(s.frames_rebuilt);
  registry.GetGauge("serve/stream/frame_period_us").Set(result.config.frame_period_us);
  registry.GetGauge("serve/stream/frame_deadline_us").Set(result.config.frame_deadline_us);
  registry.GetGauge("serve/stream/drop_rate").Set(s.drop_rate);
  registry.GetGauge("serve/stream/drop_slo").Set(s.drop_slo);
  registry.GetGauge("serve/stream/drop_slo_ok").Set(s.drop_slo_ok ? 1.0 : 0.0);
}

}  // namespace serve
}  // namespace minuet
