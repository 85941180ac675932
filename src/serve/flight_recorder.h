// Flight recorder: bounded rings of recent serving events and closed
// telemetry windows, snapshotted into a self-contained incident JSON the
// moment an alert fires (or on SIGINT / run-end request).
//
// An end-of-run report tells you *that* p99 blew up; the flight recorder
// tells you what the scheduler was doing in the seconds before it did. The
// serving loop feeds every arrival / dispatch / completion / shed into a
// fixed-capacity ring, and every closed time-series window into another, so
// memory stays flat over arbitrarily long runs while the recent past stays
// replayable. When a trigger arrives, IncidentJson() freezes both rings plus
// the trigger alert and the run configuration into one document — nothing in
// it references external files, so the dump alone is enough to debug from.
//
// The recorder performs no file I/O and reads no wall clock: capture
// produces a string on the virtual clock, the CLI decides where it goes.
// Two runs of the same workload therefore produce byte-identical dumps.
#ifndef SRC_SERVE_FLIGHT_RECORDER_H_
#define SRC_SERVE_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <string>

#include "src/serve/health.h"
#include "src/trace/timeseries.h"

namespace minuet {
namespace serve {

// One scheduler event as the recorder remembers it.
struct FlightEvent {
  double t_us = 0.0;
  int device = -1;      // -1 when no replica is involved
  std::string kind;     // "arrival", "dispatch", "completion", "shed", "alert"
  int64_t id = 0;       // request id or batch id, by kind
  double value = 0.0;   // kind-specific: batch size, latency_us, queue depth
};

class FlightRecorder {
 public:
  // Capacities bound the rings; older entries fall off the front.
  static constexpr size_t kEventCapacity = 256;
  static constexpr size_t kWindowCapacity = 64;

  void RecordEvent(FlightEvent event);
  void RecordWindow(const trace::TimeWindow& window);

  size_t num_events() const { return events_.size(); }
  size_t num_windows() const { return windows_.size(); }

  // Freezes the rings into a self-contained incident document:
  //   {"incident":1, "trigger":{...}, "config":<config_json>,
  //    "events":[...], "windows":[...]}
  // `config_json` must be a complete JSON value (the run's scheduler/fleet
  // configuration); pass "null" when unavailable. `trigger` may be an alert
  // or a synthetic event (SIGINT, run end) expressed as an AlertEvent.
  std::string IncidentJson(const AlertEvent& trigger, const std::string& config_json) const;

 private:
  std::deque<FlightEvent> events_;
  std::deque<trace::TimeWindow> windows_;
};

}  // namespace serve
}  // namespace minuet

#endif  // SRC_SERVE_FLIGHT_RECORDER_H_
