// ServeTelemetry: the streaming observability surface of one serving run.
//
// Owns the three telemetry organs and keeps them in lock-step with the
// scheduler's virtual clock:
//
//   TimeSeriesRegistry  — fixed-interval windowed rollups of every serving
//                         signal (src/trace/timeseries.h);
//   HealthEngine        — burn-rate rules + replica health over each closed
//                         window (src/serve/health.h);
//   FlightRecorder      — bounded rings of recent events and windows,
//                         frozen into incident dumps (flight_recorder.h).
//
// The fleet event loop attaches one instance per run (AttachTelemetry) and
// calls the On* hooks at the same points where it builds its own records, so
// the timeline is derived from exactly the events the report is — the two
// can never disagree. AdvanceTo(t) runs at the top of every loop iteration,
// before the event at t is processed: windows close on clock boundaries,
// each closed window feeds the health engine, and any alert edges join the
// run's deterministic event stream (and the flight ring). The first firing
// alert freezes the recorder into `incident_json`.
//
// Stop requests: RequestStop() is async-signal-safe (one relaxed atomic
// store), so a SIGINT handler may call it. The scheduler polls
// stop_requested() once per loop iteration and drains: pending arrivals and
// queued requests are shed, in-flight batches complete normally, and the
// run ends with the usual invariants intact — the report of an interrupted
// run is a valid report.
//
// Everything here runs on the virtual clock with no file I/O, so telemetry
// changes no simulated statistics and two runs of one workload produce
// byte-identical timelines, alert sequences, and incident dumps.
#ifndef SRC_SERVE_TELEMETRY_H_
#define SRC_SERVE_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/serve/flight_recorder.h"
#include "src/serve/health.h"
#include "src/trace/timeseries.h"

namespace minuet {
namespace serve {

struct SchedulerConfig;

struct TelemetryConfig {
  double interval_us = 10000.0;  // time-series window width
};

class ServeTelemetry {
 public:
  explicit ServeTelemetry(const TelemetryConfig& config);
  ServeTelemetry(const ServeTelemetry&) = delete;
  ServeTelemetry& operator=(const ServeTelemetry&) = delete;

  // --- scheduler-facing wiring (one run per instance) -----------------------
  void BeginRun(int num_devices, const SchedulerConfig& scheduler);
  void AdvanceTo(double t_us);
  // `queue_depth` is the replica's queue after the admit.
  void OnArrival(double t_us, int device, int64_t request_id, int64_t queue_depth);
  void OnShed(double t_us, int device, int64_t request_id);
  // `warm`/`plan_hits`/`plan_misses` are summed over the batch members;
  // `queue_depth` is the replica's queue after the batch left it. Busy time
  // [t_us, flight_end_us) is attributed across every window it overlaps.
  void OnDispatch(double t_us, int device, int64_t batch_id, int64_t batch_size,
                  int64_t warm, int64_t plan_hits, int64_t plan_misses,
                  double flight_end_us, int64_t queue_depth);
  // `batch_delay_us` is the causal batching share of the request's queue
  // time (PhaseTrace::batch_delay_ns): how long the batcher held it while
  // its replica sat idle. Windowed as "fleet/batch_delay_us" so burn-rate
  // dashboards can separate batching stalls from genuine backlog.
  void OnCompletion(double t_us, int device, int64_t request_id, double queue_us,
                    double batch_delay_us, double latency_us, bool slo_ok);
  // Closes every remaining window (feeding the health engine) at run end.
  void Finish();

  // --- cooperative stop (SIGINT) -------------------------------------------
  void RequestStop() { stop_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const { return stop_.load(std::memory_order_relaxed); }

  // --- results --------------------------------------------------------------
  const TelemetryConfig& config() const { return config_; }
  trace::TimeSeriesRegistry& series() { return series_; }
  const trace::TimeSeriesRegistry& series() const { return series_; }
  const FlightRecorder& recorder() const { return recorder_; }
  const std::vector<AlertEvent>& alerts() const { return alerts_; }
  // Incident frozen at the first firing alert; empty when none fired.
  const std::string& incident_json() const { return incident_json_; }
  // Incident with a synthetic trigger ("sigint", "run_end", ...) over the
  // rings as they stand now.
  std::string CaptureIncident(const std::string& reason) const;

 private:
  void IngestClosed(size_t begin, size_t end);

  TelemetryConfig config_;
  trace::TimeSeriesRegistry series_;
  FlightRecorder recorder_;
  std::unique_ptr<HealthEngine> health_;
  std::vector<AlertEvent> alerts_;
  std::string incident_json_;
  std::string config_json_ = "null";
  int num_devices_ = 0;
  double last_advance_us_ = 0.0;
  std::atomic<bool> stop_{false};
};

}  // namespace serve
}  // namespace minuet

#endif  // SRC_SERVE_TELEMETRY_H_
