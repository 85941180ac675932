// Deterministic event-driven request scheduler with dynamic batching,
// admission control and SLO accounting.
//
// The scheduler advances a virtual serving clock (integer nanoseconds; see
// src/serve/request.h) over three event kinds, processed in a fixed order at
// equal timestamps so every run of the same (trace, config, engine) is
// bit-identical:
//
//   1. batch completion  — the server frees up,
//   2. request arrival   — admit into the bounded queue or shed on overflow,
//   3. batch dispatch    — when the server is idle, coalesce compatible
//                          queued requests and execute them.
//
// Dynamic batching: the batcher picks the head-of-queue request under the
// admission policy, then fills the batch with queued requests of the same
// batch class (same network + precision) in policy order. It dispatches when
// the batch is full (max_batch_size), when the earliest candidate has waited
// max_queue_delay_us, or when no further arrival can ever top the batch up —
// the classic max-size / max-delay policy of batched inference servers
// (TorchSparse++-style deployments, TF-Serving's batching layer). A batch
// whose delay timer has expired is frozen at the expiry instant: an arrival
// stamped with the very same timestamp is sequenced after the timer and
// waits for the next batch instead of riding the departing one.
//
// Execution: every request runs through the engine's RunSession, so repeated
// shapes are served warm from the plan cache exactly as the serving path
// (PR 1) intends. Requests batched together overlap on the device the way
// the engine's GEMM stream pool overlaps independent work:
//
//   service_cycles = max(max_i cycles_i, (sum_i cycles_i) / min(B, S))
//
// with S = kStreamPoolSize (4, for every engine kind) — the batch can never
// finish before its critical request, and B-way concurrency is capped by the
// stream pool.
// All requests of a batch complete together at dispatch + service.
//
// Determinism: the serving clock is virtual, all randomness flows through
// seeded Pcg32 streams, and the cache model keys on the device's own
// addresses (device_memory.h), so service times inherit nothing from the
// host heap.
//
// This header holds the per-replica policy pieces: the config, the batcher,
// the overlap model and the summary. The event loop that drives them lives
// in src/serve/fleet.h, and it is the only deployment: a single device is
// served as a FleetScheduler over one engine.
#ifndef SRC_SERVE_SCHEDULER_H_
#define SRC_SERVE_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "src/serve/request.h"

namespace minuet {

namespace trace {
class MetricsRegistry;
}  // namespace trace

namespace serve {

struct SchedulerConfig {
  AdmissionPolicy policy = AdmissionPolicy::kFifo;
  // Pending requests the admission queue holds; arrivals beyond it are shed.
  // 0 sheds every arrival (drain/brown-out configuration).
  int64_t queue_capacity = 64;
  int64_t max_batch_size = 4;        // >= 1
  double max_queue_delay_us = 2000.0;  // partial-batch dispatch timer
  double slo_us = 50000.0;           // end-to-end target for goodput
  uint64_t seed = 1;                 // closed-loop client randomness
};

// Aggregate accounting over one scheduler run. All times are serving-clock
// microseconds; percentiles cover completed requests only. Busy time is the
// sum of the batch records' flights (completion - dispatch), so per-device
// busy times add up to the fleet's exactly. Degenerate runs
// (nothing offered, everything shed, zero duration) report 0 for every rate
// and percentile — never NaN/Inf, which JSON would decay to null.
struct ServeSummary {
  int64_t offered = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  int64_t completed = 0;
  int64_t num_batches = 0;
  int64_t warm_requests = 0;  // served from a cached plan
  double duration_us = 0.0;   // clock zero -> last completion (or last shed)
  double server_busy_us = 0.0;
  double utilization = 0.0;   // busy / duration
  double offered_rps = 0.0;
  double throughput_rps = 0.0;  // completions per second of duration
  double goodput_rps = 0.0;     // completions within slo_us per second
  double shed_rate = 0.0;       // shed / offered
  double slo_attainment = 0.0;  // fraction of completed within slo_us
  double mean_batch_size = 0.0;
  double queue_p50_us = 0.0, queue_p95_us = 0.0, queue_p99_us = 0.0;
  double service_p50_us = 0.0, service_p95_us = 0.0, service_p99_us = 0.0;
  double latency_p50_us = 0.0, latency_p95_us = 0.0, latency_p99_us = 0.0;
};

ServeSummary Summarize(const std::vector<RequestRecord>& requests,
                       const std::vector<BatchRecord>& batches,
                       const SchedulerConfig& config);

// The batcher, exposed for unit tests: orders `queue` (admission order) under
// `policy`, takes the head, and returns indices into `queue` of up to
// max_batch_size requests sharing the head's batch class, in dispatch order.
struct QueueEntry {
  const Request* request = nullptr;
  int64_t admit_order = 0;
};
std::vector<size_t> PickBatch(const std::vector<QueueEntry>& queue, AdmissionPolicy policy,
                              int64_t max_batch_size);

// The stream-pool overlap model (see file comment).
double BatchServiceCycles(const std::vector<double>& request_cycles, int stream_pool_size);

// Copies a run's serve counters and latency aggregates into `registry` under
// "serve/..." (counters, gauges, and queue/latency histograms over the
// completed `requests`).
void PublishServeMetrics(const SchedulerConfig& config, const std::vector<RequestRecord>& requests,
                         const ServeSummary& summary, trace::MetricsRegistry& registry);

}  // namespace serve
}  // namespace minuet

#endif  // SRC_SERVE_SCHEDULER_H_
