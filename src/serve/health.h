// SLO burn-rate and replica-health engine over closed telemetry windows.
//
// The serving loop closes time-series windows on virtual-clock boundaries
// (src/trace/timeseries.h); this engine consumes each closed window, in
// order, and turns the per-window counters into operator-facing signals:
//
//   Burn rate. The SLO target, kSloTarget = 0.999, leaves an error budget
//   of 0.1% of requests. The burn rate of a sliding window is how fast that
//   budget is being spent relative to plan:
//
//       bad_fraction = (finished - slo_ok) / finished    over the window
//       burn         = bad_fraction / (1 - kSloTarget)
//
//   where finished counts completions *and* sheds (a shed request missed its
//   SLO by any reasonable definition). burn == 1 means exactly on budget;
//   burn == 14 on a 0.1% budget means ~1.4% of traffic is failing.
//
//   Multi-window rules (the Google SRE alerting recipe): a rule fires only
//   when both a long and a short sliding window exceed its threshold — the
//   long window proves the problem is sustained, the short window proves it
//   is still happening, and the pair resolves quickly once traffic recovers.
//   Two fixed rules: "page" (short windows, high threshold — a fast,
//   severe burn) and "ticket" (long windows, low threshold — a slow leak).
//   Every rule is evaluated fleet-wide and per replica.
//
//   Health states. Each replica is healthy / degraded / saturated per
//   window, from its queue-depth high-water mark (fraction of capacity),
//   utilization (busy-us over the window), and whether it shed: saturated
//   when it shed or its queue reached 90% of capacity, degraded at 50% or at
//   85% utilization. State transitions emit events just like burn alerts.
//
// Determinism: the engine is fed closed windows in index order from a
// deterministic timeline, holds no wall-clock state, and appends events in a
// fixed scope order (fleet first, then replicas ascending; rules in
// declaration order), so the alert sequence of a run is byte-identical
// across runs — the same guarantee the record stream already has.
#ifndef SRC_SERVE_HEALTH_H_
#define SRC_SERVE_HEALTH_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/trace/timeseries.h"

namespace minuet {
namespace serve {

enum class HealthState { kHealthy, kDegraded, kSaturated };

const char* HealthStateName(HealthState state);

// Fraction of finished requests that must land inside the SLO.
inline constexpr double kSloTarget = 0.999;

// A first-class timestamped event in the deterministic serving event
// stream: a burn-rate rule firing/resolving or a replica health transition.
struct AlertEvent {
  double t_us = 0.0;      // close boundary of the triggering window
  int64_t window = 0;     // index of that window
  int device = -1;        // -1 = fleet-wide scope
  std::string kind;       // "burn:<rule>" or "health"
  bool firing = false;    // rising edge (true) or resolution (false)
  double value = 0.0;     // burn rate (short window) or new state ordinal
  std::string detail;     // human-oriented: thresholds, state names
};

// Serialises one alert as a JSON object (shared by reports, the flight
// recorder, and the timeline tools).
std::string AlertJson(const AlertEvent& alert);

// Feeds on closed windows; see file comment. Construct once per run.
class HealthEngine {
 public:
  // `num_devices` replicas; `queue_capacity` and `interval_us` scale the
  // queue-fraction and utilization thresholds.
  HealthEngine(int num_devices, int64_t queue_capacity, double interval_us);

  // Consumes the next closed window (must be fed densely, ascending) and
  // appends any alert edges to *out in deterministic order.
  void OnWindow(const trace::TimeWindow& window, std::vector<AlertEvent>* out);

  const std::vector<HealthState>& device_states() const { return states_; }
  // Burn rate of the last `windows` closed windows for a scope (device -1 =
  // fleet). Exposed for tests; 0 when nothing finished.
  double BurnRate(int device, int windows) const;

 private:
  struct WindowCounts {
    double finished = 0.0;  // completed + shed
    double bad = 0.0;       // finished - slo_ok
  };
  // Scope 0 = fleet, scope 1 + k = device k.
  int NumScopes() const { return 1 + num_devices_; }
  void Evaluate(const trace::TimeWindow& window, std::vector<AlertEvent>* out);

  int num_devices_;
  int64_t queue_capacity_;
  double interval_us_;
  // Per scope: per-window finished/bad history, newest at the back, trimmed
  // to the longest rule window.
  std::vector<std::deque<WindowCounts>> history_;
  // Per scope x rule: whether the rule is currently firing.
  std::vector<std::vector<bool>> firing_;
  std::vector<HealthState> states_;  // per device
};

}  // namespace serve
}  // namespace minuet

#endif  // SRC_SERVE_HEALTH_H_
