// Video-rate stream serving: the closed-loop scenario for temporally
// coherent LiDAR sequences (src/data/sequence.h) on the incremental
// kernel-map path (src/engine/sequence_session.h).
//
// An open-loop request scheduler models independent inference calls; a
// perception pipeline is different in two ways that change the scheduling
// problem:
//
//   1. Frames arrive on a fixed clock (the sensor rate). There is no burst
//      model to tune — frame f of every stream arrives at exactly
//      f * frame_period_us on the serving clock.
//   2. A late frame is worthless. A frame whose execution cannot *start*
//      within frame_deadline_us of its arrival is dropped, not queued
//      further: the next capture has already superseded it. Dropping is not
//      free — the stream's incremental chain breaks, and the next frame of
//      that stream pays a full map rebuild (a map reuse miss the blame
//      profiler can see as map_ns where map_delta_ns used to be).
//
// Each stream is pinned to replica (stream % num_replicas) and owns a
// SequenceSession there, so its retained sorted-key state survives across
// frames and across Run() passes (a second pass over the same sequence
// replays warm, like every other scheduler in src/serve). Frames of the
// streams pinned to one replica serialise FIFO in arrival order (ties by
// stream id), one frame per dispatch — batching across streams would let a
// fat batch blow every member's deadline.
//
// StreamScheduler is a traffic source, not a second scheduler: Run() turns
// the frames into an ordinary request trace and serves it on the fleet's
// event loop (src/serve/fleet.h) with three ServeHooks — pinned routing, an
// executor that runs SequenceSession::RunFrame, and the frame deadline. The
// loop's integer-ns clock, tie order (completions by device, then arrivals
// by request id, then dispatches by device), tracing, telemetry and
// cooperative stop all apply unchanged: two runs of one (sequence, config,
// pool) produce byte-identical reports, request dumps and timelines, and a
// stop request (Ctrl-C in minuet_serve) drains the run.
//
// SLO: alongside the usual latency accounting (slo == the frame deadline),
// the scenario's headline verdict is the frames-dropped SLO — dropped /
// offered must stay within drop_slo. Drops also stream into telemetry as the
// "stream/frames_dropped" counter series, so burn-rate rules and timelines
// see them per window.
#ifndef SRC_SERVE_STREAM_H_
#define SRC_SERVE_STREAM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/data/sequence.h"
#include "src/engine/sequence_session.h"
#include "src/serve/health.h"
#include "src/serve/request.h"
#include "src/serve/scheduler.h"

namespace minuet {

namespace trace {
class MetricsRegistry;
}  // namespace trace

namespace serve {

class ServeTelemetry;

struct StreamServeConfig {
  int64_t num_streams = 1;
  double frame_period_us = 100000.0;   // 10 Hz sensor clock
  double frame_deadline_us = 100000.0;  // drop if dispatch would start later
  double drop_slo = 0.01;               // frames-dropped SLO (fraction of offered)
  // false: every frame pays the full input sort — the ablation baseline with
  // identical simulated results and different charges.
  bool incremental = true;
};

// Per-stream accounting over one run.
struct StreamSummary {
  int64_t stream = 0;
  int device = 0;              // pinned replica
  int64_t frames = 0;          // offered to this stream
  int64_t completed = 0;
  int64_t dropped = 0;
  int64_t frames_incremental = 0;  // served on the delta-merge path
  int64_t frames_rebuilt = 0;      // full map rebuilds (chain start/break/churn)
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
};

struct StreamServeSummary {
  ServeSummary serve;  // standard aggregate (slo_us == frame deadline)
  int64_t frames_offered = 0;
  int64_t frames_completed = 0;
  int64_t frames_dropped = 0;
  int64_t frames_incremental = 0;  // the map-reuse counter the CI gate asserts on
  int64_t frames_rebuilt = 0;
  double drop_rate = 0.0;  // dropped / offered
  double drop_slo = 0.0;   // from config, echoed for the verdict
  bool drop_slo_ok = true;
};

struct StreamServeResult {
  StreamServeConfig config;
  SequenceConfig sequence;              // identity of the replayed workload
  std::vector<RequestRecord> requests;  // one per frame, ordered by request id
  std::vector<BatchRecord> batches;     // one per dispatched frame
  StreamServeSummary summary;
  std::vector<StreamSummary> streams;   // ascending stream id
  std::vector<AlertEvent> alerts;       // empty without attached telemetry
};

// Closed-loop video-rate scheduler over non-owned, Prepare()d engines (all
// must be sorted-map Minuet engines — SequenceSession requires it — and
// match the sequence's channel count). Stream state (sessions, retained key
// arrays, plan caches) persists across Run() calls.
//
// Request identity: frame f of stream s is request id f * num_streams + s,
// priority 0, batch_class == client == the stream id — so the request dump,
// explain, and report group naturally by stream.
class StreamScheduler {
 public:
  StreamScheduler(std::vector<Engine*> engines, const StreamServeConfig& config);

  // Replays `sequence` on every stream (frames dispatched in order per
  // stream; every stream serves the same frames from its own session).
  StreamServeResult Run(const Sequence& sequence);

  size_t num_replicas() const { return engines_.size(); }
  size_t num_streams() const { return streams_.size(); }
  SequenceSession& stream_session(size_t stream) { return *streams_[stream].session; }

  // Streams loop events into `telemetry` for the next Run() (one instance
  // covers one run; detach with nullptr). Adds the stream-specific counter
  // series "stream/frames_dropped", "stream/frames_incremental" and
  // "stream/frames_rebuilt" to the shared serving timeline.
  void AttachTelemetry(ServeTelemetry* telemetry) { telemetry_ = telemetry; }

 private:
  struct Stream {
    int device = 0;
    std::unique_ptr<SequenceSession> session;
  };

  StreamServeConfig config_;
  std::vector<Engine*> engines_;
  std::vector<Stream> streams_;
  ServeTelemetry* telemetry_ = nullptr;  // not owned; may be null
};

// Copies the run's counters into `registry` under "serve/..." (the standard
// surface) plus "serve/stream/..." (frame and drop counters, the verdict).
void PublishStreamMetrics(const StreamServeResult& result, trace::MetricsRegistry& registry);

}  // namespace serve
}  // namespace minuet

#endif  // SRC_SERVE_STREAM_H_
