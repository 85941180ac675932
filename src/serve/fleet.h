// Fleet scheduler: the serving deployment — an N-replica, possibly
// heterogeneous device pool behind a router. One device is N = 1.
//
// Every replica is a full deployment of its own — an engine bound to one
// simulated device preset (2070S / 2080 Ti / 3090 / A100 class), a
// RunSession whose plan cache and workspace pool persist across requests,
// a bounded admission queue, and an in-flight batch. A router in front
// assigns each arrival to a replica (or sheds it when every queue is full):
//
//   kRoundRobin   — arrivals cycle through replicas, spilling past full
//                   queues; the no-information baseline.
//   kLeastLoaded  — fewest requests outstanding (queued + in flight), ties
//                   to the lowest device id.
//   kAffinity     — requests stick to the replica that first served their
//                   shape (dataset, points, cloud seed), so repeats hit that
//                   replica's plan cache and workspace pool warm; cold shapes
//                   and full queues fall back to least-loaded. Maximises
//                   per-replica cache locality at the price of load skew.
//   kSjfSpillover — heterogeneity-aware shortest-expected-finish: each
//                   replica's backlog is measured in queued+in-flight points
//                   scaled by a device speed score, so small jobs spill to
//                   whichever (possibly slower) replica will finish them
//                   first instead of queueing behind big jobs on the big GPU.
//
// Determinism across the fleet: the event-driven virtual clock (integer
// nanoseconds, src/serve/request.h) runs one merged, timestamp-ordered event
// stream over every replica. At equal timestamps the order is fixed — batch
// completions first (ascending device id), then request arrivals (ascending
// request id), then batch dispatches (ascending device id) — so every run of
// the same (trace, pool, policy) is bit-identical and bench/byte_compare.sh
// extends to fleet runs unchanged. The partial-batch delay timer freezes its
// batch at the instant it fires: an arrival carrying the *same* timestamp as
// an already-expired timer is sequenced after that dispatch and cannot ride
// the departing batch (see DecideDispatch).
//
// This loop is the only serving event loop and the only deployment: a single
// device is a FleetScheduler over one engine, and the video-rate
// StreamScheduler (stream.h) is a traffic source on it. ServeHooks carry what
// differs per source — routing, the per-replica executor, and a dispatch
// deadline — so every path shares one implementation of admission, batching,
// the delay timer, tracing, telemetry and SLO accounting.
#ifndef SRC_SERVE_FLEET_H_
#define SRC_SERVE_FLEET_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/engine/engine.h"
#include "src/serve/arrival.h"
#include "src/serve/health.h"
#include "src/serve/request.h"
#include "src/serve/scheduler.h"

namespace minuet {

namespace trace {
class MetricsRegistry;
}  // namespace trace

namespace serve {

class ServeTelemetry;

enum class RoutingPolicy { kRoundRobin, kLeastLoaded, kAffinity, kSjfSpillover };

const char* RoutingPolicyName(RoutingPolicy policy);
bool ParseRoutingPolicy(const std::string& name, RoutingPolicy* out);

struct FleetConfig {
  RoutingPolicy routing = RoutingPolicy::kLeastLoaded;
  // Per-replica admission/batching parameters (every replica runs the same
  // policy; heterogeneity lives in the DeviceConfig behind each engine).
  SchedulerConfig scheduler;
};

// Accounting for one replica over a fleet run: the standard serve summary
// over the requests routed to it, plus the cache-locality counters routing
// policies differentiate on (plan-cache hits, workspace-pool reuse).
struct DeviceSummary {
  int device = 0;
  std::string name;         // DeviceConfig name of the replica's preset
  ServeSummary summary;     // over this replica's requests/batches only
  uint64_t plan_hits = 0;   // RunSession plan-cache lookups served warm
  uint64_t plan_misses = 0;
  double plan_hit_rate = 0.0;  // hits / (hits + misses), 0 when no lookups
  uint64_t pool_reuses = 0;
  uint64_t pool_allocations = 0;
};

// Per-priority-tier latency accounting (tier == Request::priority).
struct TierSummary {
  int priority = 0;
  int64_t offered = 0;
  int64_t completed = 0;
  int64_t shed = 0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
};

struct FleetSummary {
  ServeSummary fleet;  // aggregate over every request and batch in the run
  std::vector<DeviceSummary> devices;   // indexed by device id
  std::vector<TierSummary> tiers;       // ascending priority
  // Cross-device plan-cache asymmetry: max - min per-device hit rate over
  // replicas that saw any lookups. Least-loaded spreads every shape across
  // the pool, so lightly-loaded replicas keep paying cold misses and rates
  // diverge; affinity pins each shape to one owner, so every active replica
  // stays uniformly warm and the asymmetry collapses (with a higher min).
  double plan_hit_rate_min = 0.0;
  double plan_hit_rate_max = 0.0;
  double plan_hit_asymmetry = 0.0;
};

// One batch member's execution on a replica: its per-step device cycles and
// what its session's plan cache did for it.
struct MemberRun {
  StepBreakdown cycles;
  bool warm = false;  // served from a cached ExecutionPlan
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
};

// The session accounting of one member that ran between two stats snapshots.
MemberRun MeasureMember(const StepBreakdown& cycles, const SessionStats& before,
                        const SessionStats& after);

// Runs one batch member on replica `device`, dispatched at serving-clock
// instant `now_ns`.
using Executor = std::function<MemberRun(int device, const Request& request, int64_t now_ns)>;

// The traffic-source-specific half of the serving loop. The defaults serve
// ordinary requests: the routing policy picks the replica, the replica's
// RunSession executes each member on the request's cloud, nothing expires.
// Video-rate streams (src/serve/stream.h) fill in all three.
struct ServeHooks {
  // Replica for `request`, replacing the routing policy (a full queue still
  // sheds).
  std::function<int(const Request&)> route;
  // Replaces the RunSession executor; also the seam for fakes in tests.
  Executor execute;
  // When >= 0, a queued request that can no longer start within deadline_us
  // of its arrival is shed at dispatch instead of run, and on_drop sees it.
  double deadline_us = -1.0;
  std::function<void(const Request& request, int64_t now_ns)> on_drop;
};

struct FleetResult {
  FleetConfig config;
  std::vector<RequestRecord> requests;  // ordered by request id
  std::vector<BatchRecord> batches;     // dispatch order (time, device id)
  FleetSummary summary;
  // Burn-rate / health alert edges, in firing order (empty without an
  // attached ServeTelemetry). Part of the deterministic event stream: the
  // sequence is byte-identical across runs of one workload.
  std::vector<AlertEvent> alerts;
};

// One replica of the fleet: an engine plus everything the scheduler keeps
// per device. Exposed so tests can reach the session (plan cache, pool).
class Replica {
 public:
  Replica(int id, Engine& engine, const SchedulerConfig& config);

  int id() const { return id_; }
  Engine& engine() { return *engine_; }
  const Engine& engine() const { return *engine_; }
  RunSession& session() { return session_; }
  const SchedulerConfig& config() const { return config_; }

  // Router-visible load: requests queued plus in flight.
  int64_t Outstanding() const;
  // Router-visible backlog in points (the SJF-spillover work measure).
  int64_t OutstandingPoints() const;
  bool QueueFull() const;
  bool busy() const { return busy_; }

  // Relative device throughput for heterogeneity-aware routing. Derived
  // from the DeviceConfig (SM count x clock), normalised to nothing — only
  // ratios between replicas matter.
  double SpeedScore() const;

 private:
  friend class FleetScheduler;

  struct Pending {
    RequestRecord record;  // born at arrival
    int64_t admit_order = 0;
  };

  int id_;
  Engine* engine_;
  SchedulerConfig config_;
  RunSession session_;
  std::vector<Pending> queue_;  // admission order
  int64_t admit_counter_ = 0;
  bool busy_ = false;
  int64_t flight_end_ns_ = 0;
  std::vector<RequestRecord> flight_;
};

// Event-driven fleet scheduler over non-owned, Prepare()d engines (one per
// replica; all must share a network input-channel count so request clouds
// can be shared). Replica state — sessions, queues — persists across Run()
// calls, so a second pass over the same trace replays warm (a long-lived
// deployment).
class FleetScheduler {
 public:
  FleetScheduler(std::vector<Engine*> engines, const FleetConfig& config);

  // Serves a pre-generated open-loop trace, in any order (the loop's arrival
  // heap orders it by arrival instant, then request id).
  FleetResult Run(std::vector<Request> trace, const ServeHooks& hooks = {});
  // Open-loop processes delegate to GenerateArrivalTrace; kClosedLoop drives
  // the client pool against the whole fleet.
  FleetResult Run(const TraceConfig& trace);

  size_t num_replicas() const { return replicas_.size(); }
  Replica& replica(size_t i) { return *replicas_[i]; }

  // Streams every loop event into `telemetry` for the next Run() call (one
  // telemetry instance covers exactly one run; detach with nullptr). The
  // telemetry object also carries the cooperative stop flag: when its
  // stop_requested() goes high mid-run, the loop sheds all pending and
  // queued requests, lets in-flight batches finish, and returns a complete,
  // well-formed result for the truncated run.
  void AttachTelemetry(ServeTelemetry* telemetry) { telemetry_ = telemetry; }

 private:
  FleetResult RunLoop(std::vector<Request> arrivals, const TraceConfig* closed,
                      const ServeHooks& hooks);
  // Picks the replica for `request` under the routing policy (or the hook),
  // or -1 to shed (every admissible queue full).
  int Route(const Request& request, const ServeHooks& hooks);
  const PointCloud& CloudFor(const Request& request);

  FleetConfig config_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  ServeTelemetry* telemetry_ = nullptr;  // not owned; may be null
  int64_t round_robin_next_ = 0;
  // Shape -> owning replica for kAffinity (first-touch, stable thereafter).
  std::map<std::tuple<int, int64_t, uint64_t>, int> affinity_;
  // Clouds are pure functions of (dataset, points, seed); shared across
  // replicas so a fleet does not regenerate one cloud per device.
  std::map<std::tuple<int, int64_t, uint64_t>, PointCloud> clouds_;
};

// Aggregate + per-device + per-tier accounting. `replicas` may be empty
// (device summaries then cover only what the records name).
FleetSummary SummarizeFleet(const std::vector<RequestRecord>& requests,
                            const std::vector<BatchRecord>& batches,
                            const FleetConfig& config,
                            const std::vector<DeviceSummary>& devices);

// Publishes the aggregate under "serve/..." (PublishServeMetrics) plus
// per-device metrics under "serve/dev<k>/..." and fleet-level
// routing/asymmetry gauges under "serve/fleet/...".
void PublishFleetMetrics(const FleetResult& result, trace::MetricsRegistry& registry);

// The one naming rule for a deployment's device-side metrics. A single
// replica is "the device": it publishes under "device/..." plus, when
// `session` (its RunSession) is given, the "session/", "plan_cache/" and
// "workspace_pool/" counters. More replicas publish each device under
// "dev<k>/..." and ignore `session`.
void PublishDeviceMetrics(const std::vector<Engine*>& engines, const RunSession* session,
                          trace::MetricsRegistry& registry);

}  // namespace serve
}  // namespace minuet

#endif  // SRC_SERVE_FLEET_H_
