#include "src/serve/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>
#include <string>
#include <utility>

#include "src/serve/reqtrace.h"
#include "src/serve/telemetry.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/check.h"
#include "src/util/summary.h"

namespace minuet {
namespace serve {

namespace {

constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

double Exponential(Pcg32& rng, double mean) {
  return -std::log(1.0 - rng.NextDouble()) * mean;
}

// Min-heap order over pending arrivals: earliest first, ids break ties.
struct ArrivalAfter {
  bool operator()(const RequestRecord& a, const RequestRecord& b) const {
    return a.arrival_ns != b.arrival_ns ? a.arrival_ns > b.arrival_ns
                                        : a.request.id > b.request.id;
  }
};

std::tuple<int, int64_t, uint64_t> ShapeKey(const Request& request) {
  return std::make_tuple(static_cast<int>(request.dataset), request.points, request.cloud_seed);
}

}  // namespace

const char* RoutingPolicyName(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kRoundRobin:
      return "round-robin";
    case RoutingPolicy::kLeastLoaded:
      return "least-loaded";
    case RoutingPolicy::kAffinity:
      return "affinity";
    case RoutingPolicy::kSjfSpillover:
      return "sjf-spillover";
  }
  return "unknown";
}

bool ParseRoutingPolicy(const std::string& name, RoutingPolicy* out) {
  if (name == "round-robin") {
    *out = RoutingPolicy::kRoundRobin;
  } else if (name == "least-loaded") {
    *out = RoutingPolicy::kLeastLoaded;
  } else if (name == "affinity") {
    *out = RoutingPolicy::kAffinity;
  } else if (name == "sjf-spillover" || name == "sjf") {
    *out = RoutingPolicy::kSjfSpillover;
  } else {
    return false;
  }
  return true;
}

Replica::Replica(int id, Engine& engine, const SchedulerConfig& config)
    : id_(id), engine_(&engine), config_(config), session_(engine) {}

int64_t Replica::Outstanding() const {
  return static_cast<int64_t>(queue_.size() + flight_.size());
}

int64_t Replica::OutstandingPoints() const {
  int64_t points = 0;
  for (const Pending& pending : queue_) {
    points += pending.record.request.points;
  }
  for (const RequestRecord& record : flight_) {
    points += record.request.points;
  }
  return points;
}

bool Replica::QueueFull() const {
  return static_cast<int64_t>(queue_.size()) >= config_.queue_capacity;
}

double Replica::SpeedScore() const {
  const DeviceConfig& device = engine_->device().config();
  return static_cast<double>(device.num_sms) * device.clock_ghz;
}

FleetScheduler::FleetScheduler(std::vector<Engine*> engines, const FleetConfig& config)
    : config_(config) {
  MINUET_CHECK(!engines.empty()) << "a fleet needs at least one replica";
  MINUET_CHECK_GE(config.scheduler.queue_capacity, 0);
  MINUET_CHECK_GE(config.scheduler.max_batch_size, 1);
  MINUET_CHECK_GE(config.scheduler.max_queue_delay_us, 0.0);
  for (size_t i = 0; i < engines.size(); ++i) {
    MINUET_CHECK(engines[i] != nullptr);
    MINUET_CHECK_EQ(engines[i]->network().in_channels, engines[0]->network().in_channels)
        << "fleet replicas must share an input-channel count: request clouds are "
        << "generated once and served on whichever replica the router picks";
    replicas_.push_back(
        std::make_unique<Replica>(static_cast<int>(i), *engines[i], config.scheduler));
  }
}

const PointCloud& FleetScheduler::CloudFor(const Request& request) {
  const auto key = ShapeKey(request);
  auto it = clouds_.find(key);
  if (it == clouds_.end()) {
    GeneratorConfig gen;
    gen.target_points = request.points;
    gen.channels = replicas_[0]->engine().network().in_channels;
    gen.seed = request.cloud_seed;
    it = clouds_.emplace(key, GenerateCloud(request.dataset, gen)).first;
  }
  return it->second;
}

MemberRun MeasureMember(const StepBreakdown& cycles, const SessionStats& before,
                        const SessionStats& after) {
  MemberRun member;
  member.cycles = cycles;
  member.warm = after.warm_runs > before.warm_runs;
  member.plan_hits = after.plan.hits - before.plan.hits;
  member.plan_misses = after.plan.misses - before.plan.misses;
  return member;
}

int FleetScheduler::Route(const Request& request, const ServeHooks& hooks) {
  if (hooks.route) {
    const int k = hooks.route(request);
    return replicas_[static_cast<size_t>(k)]->QueueFull() ? -1 : k;
  }
  const int n = static_cast<int>(replicas_.size());
  const auto least_loaded = [&]() {
    int best = -1;
    int64_t best_load = 0;
    for (int k = 0; k < n; ++k) {
      if (replicas_[static_cast<size_t>(k)]->QueueFull()) {
        continue;
      }
      const int64_t load = replicas_[static_cast<size_t>(k)]->Outstanding();
      if (best < 0 || load < best_load) {
        best = k;
        best_load = load;
      }
    }
    return best;
  };

  switch (config_.routing) {
    case RoutingPolicy::kRoundRobin: {
      const int start = static_cast<int>(round_robin_next_++ % n);
      for (int step = 0; step < n; ++step) {
        const int k = (start + step) % n;
        if (!replicas_[static_cast<size_t>(k)]->QueueFull()) {
          return k;
        }
      }
      return -1;
    }
    case RoutingPolicy::kLeastLoaded:
      return least_loaded();
    case RoutingPolicy::kAffinity: {
      const auto key = ShapeKey(request);
      auto it = affinity_.find(key);
      if (it != affinity_.end() && !replicas_[static_cast<size_t>(it->second)]->QueueFull()) {
        return it->second;
      }
      const int k = least_loaded();
      // First touch claims the shape; a full owner spills without losing it.
      if (k >= 0 && it == affinity_.end()) {
        affinity_.emplace(key, k);
      }
      return k;
    }
    case RoutingPolicy::kSjfSpillover: {
      int best = -1;
      double best_finish = std::numeric_limits<double>::infinity();
      for (int k = 0; k < n; ++k) {
        Replica& replica = *replicas_[static_cast<size_t>(k)];
        if (replica.QueueFull()) {
          continue;
        }
        const double finish =
            static_cast<double>(replica.OutstandingPoints() + request.points) /
            replica.SpeedScore();
        if (best < 0 || finish < best_finish) {
          best = k;
          best_finish = finish;
        }
      }
      return best;
    }
  }
  return -1;
}

FleetResult FleetScheduler::Run(std::vector<Request> trace, const ServeHooks& hooks) {
  return RunLoop(std::move(trace), nullptr, hooks);
}

FleetResult FleetScheduler::Run(const TraceConfig& trace) {
  if (trace.process != ArrivalProcess::kClosedLoop) {
    return RunLoop(GenerateArrivalTrace(trace), nullptr, {});
  }
  return RunLoop({}, &trace, {});
}

FleetResult FleetScheduler::RunLoop(std::vector<Request> arrivals, const TraceConfig* closed,
                                    const ServeHooks& hooks) {
  trace::Tracer* tracer = trace::Tracer::Get();
  const SchedulerConfig& cfg = config_.scheduler;
  const bool single = replicas_.size() == 1;
  if (telemetry_ != nullptr) {
    telemetry_->BeginRun(static_cast<int>(replicas_.size()), cfg);
  }
  // Microsecond inputs enter the integer-ns clock here, once.
  const int64_t max_queue_delay_ns = NsFromUs(cfg.max_queue_delay_us);
  const int64_t deadline_ns = hooks.deadline_us < 0.0 ? kNever : NsFromUs(hooks.deadline_us);
  const Executor execute =
      hooks.execute ? hooks.execute : [this](int device, const Request& request, int64_t) {
        RunSession& session = replicas_[static_cast<size_t>(device)]->session_;
        const SessionStats before = session.stats();
        const RunResult run = session.Run(CloudFor(request));
        return MeasureMember(run.total, before, session.stats());
      };

  // Per-request causal tracing is always on: every completed request's phase
  // segments are CHECKed to sum bit-exactly to its e2e latency, every run.
  ReqTraceRecorder reqtrace;
  reqtrace.Reset(static_cast<int>(replicas_.size()));

  // Sessions persist across Run() calls (warm redeploys), so per-run cache
  // stats are deltas from these baselines.
  std::vector<SessionStats> session_base;
  session_base.reserve(replicas_.size());
  for (auto& replica : replicas_) {
    session_base.push_back(replica->session().stats());
  }

  // A request's record is born at its arrival, which it carries on the clock.
  const auto arriving = [](const Request& request, int64_t arrival_ns) {
    RequestRecord record;
    record.request = request;
    record.arrival_ns = arrival_ns;
    return record;
  };
  std::priority_queue<RequestRecord, std::vector<RequestRecord>, ArrivalAfter> pending;
  for (const Request& request : arrivals) {
    pending.push(arriving(request, NsFromUs(request.arrival_us)));
  }

  // Closed-loop client pool: seeded issue per client, re-issue on completion
  // or shed after an exponential think time, until num_requests are out. The
  // pool is fleet-wide — clients do not pin to replicas; the router decides.
  Pcg32 timing_rng(closed != nullptr ? closed->seed : 0, /*stream=*/0x5e73aa);
  Pcg32 body_rng(closed != nullptr ? closed->seed : 0, /*stream=*/0x5e73bb);
  RequestSampler sampler;
  int64_t issued = 0;
  auto issue = [&](int client, int64_t not_before_ns) {
    if (closed == nullptr || issued >= closed->num_requests) {
      return;
    }
    if (telemetry_ != nullptr && telemetry_->stop_requested()) {
      return;  // draining: clients stop re-issuing
    }
    const int64_t arrival_ns =
        not_before_ns + NsFromUs(Exponential(timing_rng, closed->think_time_us));
    Request request = sampler.Sample(issued++, NsToUs(arrival_ns), body_rng);
    request.client = client;
    pending.push(arriving(request, arrival_ns));
  };
  if (closed != nullptr) {
    MINUET_CHECK_GT(closed->num_clients, 0);
    MINUET_CHECK_GT(closed->think_time_us, 0.0);
    for (int client = 0; client < closed->num_clients; ++client) {
      issue(client, 0);
    }
  }

  std::vector<RequestRecord> records;
  std::vector<BatchRecord> batches;
  const auto shed = [&](RequestRecord record, int device, int64_t t_ns) {
    record.shed = true;
    record.device = device;
    if (telemetry_ != nullptr) {
      telemetry_->OnShed(NsToUs(t_ns), device, record.request.id);
    }
    records.push_back(std::move(record));
  };
  // Erases queue entries by index (descending, so the rest stay valid).
  const auto unqueue = [](Replica& replica, std::vector<size_t> indices) {
    std::sort(indices.begin(), indices.end());
    for (auto it = indices.rbegin(); it != indices.rend(); ++it) {
      replica.queue_.erase(replica.queue_.begin() + static_cast<int64_t>(*it));
    }
  };

  int64_t now_ns = 0;
  bool drained = false;
  for (;;) {
    // Cooperative stop (SIGINT via telemetry): shed everything not yet
    // running — pending arrivals at their own timestamps (all >= now; they
    // have not been processed), queued requests at `now` — and let in-flight
    // batches complete, so the truncated run still satisfies every end-of-
    // loop invariant and its report is well-formed.
    if (!drained && telemetry_ != nullptr && telemetry_->stop_requested()) {
      drained = true;
      for (; !pending.empty(); pending.pop()) {
        shed(pending.top(), 0, pending.top().arrival_ns);
      }
      for (auto& rp : replicas_) {
        for (const Replica::Pending& p : rp->queue_) {
          shed(p.record, rp->id_, now_ns);
        }
        rp->queue_.clear();
      }
    }

    // 1. Earliest batch completion; equal timestamps resolve to the lowest
    // device id (one completion per loop iteration keeps the order total).
    int64_t completion_t = kNever;
    int completion_dev = -1;
    for (auto& replica : replicas_) {
      if (replica->busy_ && replica->flight_end_ns_ < completion_t) {
        completion_t = replica->flight_end_ns_;
        completion_dev = replica->id_;
      }
    }

    const int64_t arrival_t = pending.empty() ? kNever : pending.top().arrival_ns;
    // A replica may dispatch a partial batch early only when no arrival can
    // ever top it up. In a fleet that is not "the pending heap is empty":
    // closed-loop clients re-issue when some *other* replica completes, so a
    // busy replica anywhere keeps the future open.
    const bool more_arrivals_possible =
        !pending.empty() ||
        (closed != nullptr && issued < closed->num_requests && completion_dev >= 0);

    // 3-candidates. Per idle replica with queued work: dispatch now when the
    // batch is full or nothing can top it up, else at the earliest member's
    // delay-timer expiry. The earliest replica wins; ties go to the lowest
    // device id (strict < below).
    int64_t dispatch_t = kNever;
    int dispatch_dev = -1;
    std::vector<size_t> dispatch_batch;
    for (auto& rp : replicas_) {
      Replica& replica = *rp;
      if (replica.busy_ || replica.queue_.empty()) {
        continue;
      }
      std::vector<QueueEntry> entries;
      entries.reserve(replica.queue_.size());
      for (const Replica::Pending& p : replica.queue_) {
        entries.push_back({&p.record.request, p.admit_order});
      }
      std::vector<size_t> batch = PickBatch(entries, cfg.policy, cfg.max_batch_size);
      int64_t t_k;
      if (static_cast<int64_t>(batch.size()) >= cfg.max_batch_size || !more_arrivals_possible) {
        t_k = now_ns;
      } else {
        int64_t oldest_ns = kNever;
        for (size_t idx : batch) {
          oldest_ns = std::min(oldest_ns, replica.queue_[idx].record.arrival_ns);
        }
        const int64_t timer_t = oldest_ns + max_queue_delay_ns;
        if (timer_t <= now_ns) {
          // The delay timer fired at or before `now`. Arrivals are sequenced
          // before dispatches at equal timestamps, so a request stamped `now`
          // is already in the queue — but it arrived *after* the timer went
          // off and must not ride the departing batch. Freeze the batch to
          // requests that arrived strictly before `now`, provided that frozen
          // batch is itself timer-expired (it always is when the timer owner
          // arrived before `now`; the fallback covers max_queue_delay_us == 0,
          // where everything legitimately arrived this instant).
          std::vector<QueueEntry> frozen;
          std::vector<size_t> frozen_to_queue;
          for (size_t qi = 0; qi < replica.queue_.size(); ++qi) {
            const Replica::Pending& p = replica.queue_[qi];
            if (p.record.arrival_ns < now_ns) {
              frozen.push_back({&p.record.request, p.admit_order});
              frozen_to_queue.push_back(qi);
            }
          }
          std::vector<size_t> frozen_batch = PickBatch(frozen, cfg.policy, cfg.max_batch_size);
          if (!frozen_batch.empty()) {
            int64_t frozen_oldest_ns = kNever;
            for (size_t fi : frozen_batch) {
              frozen_oldest_ns = std::min(
                  frozen_oldest_ns, replica.queue_[frozen_to_queue[fi]].record.arrival_ns);
            }
            if (frozen_oldest_ns + max_queue_delay_ns <= now_ns) {
              batch.clear();
              for (size_t fi : frozen_batch) {
                batch.push_back(frozen_to_queue[fi]);
              }
            }
          }
          t_k = now_ns;
        } else {
          t_k = timer_t;
        }
      }
      if (t_k < dispatch_t) {
        dispatch_t = t_k;
        dispatch_dev = replica.id_;
        dispatch_batch = std::move(batch);
      }
    }

    const int64_t t = std::min({completion_t, arrival_t, dispatch_t});
    if (t == kNever) {
      break;
    }
    now_ns = t;
    const double now_us = NsToUs(now_ns);
    if (telemetry_ != nullptr) {
      // Close every telemetry window the clock just passed *before* the
      // event at t is processed: the event belongs to the window containing
      // t, and alerts from the closed windows sequence ahead of it.
      telemetry_->AdvanceTo(now_us);
    }

    if (completion_t <= t) {
      // 1. Batch completion: the whole batch finishes together.
      Replica& replica = *replicas_[static_cast<size_t>(completion_dev)];
      replica.busy_ = false;
      reqtrace.EndBatch(completion_dev, now_ns);
      if (tracer != nullptr) {
        tracer->SetServeNow(now_us);
      }
      for (RequestRecord& record : replica.flight_) {
        if (tracer != nullptr) {
          // Flow arrow lands on the batch span's end: request causality in
          // Perfetto reads arrival -> dispatch -> completion.
          tracer->AddServeFlow("req#" + std::to_string(record.request.id),
                               record.request.id, 'f', completion_dev);
        }
        if (telemetry_ != nullptr) {
          telemetry_->OnCompletion(now_us, completion_dev, record.request.id,
                                   record.QueueUs(), NsToUs(record.trace.batch_delay_ns),
                                   record.LatencyUs(), record.LatencyUs() <= cfg.slo_us);
        }
        issue(record.request.client, now_ns);
        records.push_back(std::move(record));
      }
      replica.flight_.clear();
      continue;
    }

    if (arrival_t <= t) {
      // 2. Request arrival: route to a replica or shed when every admissible
      // queue is full.
      RequestRecord arrival = pending.top();
      pending.pop();
      const Request request = arrival.request;
      const int dev = Route(request, hooks);
      if (dev < 0) {
        // No replica took it; attribute the refusal to the least-loaded one
        // (ties to device 0) so per-device shed accounting stays exhaustive
        // and the fleet-of-one reduces to the classic single-device records.
        int blame = 0;
        int64_t blame_load = replicas_[0]->Outstanding();
        for (size_t k = 1; k < replicas_.size(); ++k) {
          const int64_t load = replicas_[k]->Outstanding();
          if (load < blame_load) {
            blame = static_cast<int>(k);
            blame_load = load;
          }
        }
        if (tracer != nullptr) {
          // Anchor slice for the refused request; no flow arrows — a shed
          // request has no dispatch or completion to link to.
          tracer->SetServeNow(now_us);
          const int64_t req_span = tracer->OpenSpan(
              "serve/req#" + std::to_string(request.id), "serve.req");
          tracer->SetServeTrack(req_span, blame);
          tracer->SetAttr(req_span, "priority", static_cast<int64_t>(request.priority));
          tracer->SetAttr(req_span, "points", request.points);
          tracer->SetAttr(req_span, "shed", static_cast<int64_t>(1));
          tracer->CloseSpan(req_span);
        }
        shed(std::move(arrival), blame, now_ns);
        issue(request.client, now_ns);
      } else {
        Replica& replica = *replicas_[static_cast<size_t>(dev)];
        replica.queue_.push_back({std::move(arrival), replica.admit_counter_++});
        reqtrace.AdmitRequest(dev, request.id, now_ns);
        if (tracer != nullptr) {
          // Zero-duration arrival slice on the routed replica's track plus
          // the flow start; the dispatch step ("t") and completion finish
          // ("f") bind to the batch span the request later rides.
          tracer->SetServeNow(now_us);
          const int64_t req_span = tracer->OpenSpan(
              "serve/req#" + std::to_string(request.id), "serve.req");
          tracer->SetServeTrack(req_span, dev);
          tracer->SetAttr(req_span, "priority", static_cast<int64_t>(request.priority));
          tracer->SetAttr(req_span, "points", request.points);
          tracer->CloseSpan(req_span);
          tracer->AddServeFlow("req#" + std::to_string(request.id), request.id, 's', dev);
        }
        if (telemetry_ != nullptr) {
          telemetry_->OnArrival(now_us, dev, request.id,
                                static_cast<int64_t>(replica.queue_.size()));
        }
      }
      continue;
    }

    // 3. Dispatch: run the picked batch through the replica's executor,
    // overlap the members on its stream pool, occupy it until completion.
    MINUET_CHECK_GE(dispatch_dev, 0);
    MINUET_CHECK(!dispatch_batch.empty());
    Replica& replica = *replicas_[static_cast<size_t>(dispatch_dev)];

    // Members too stale to start are shed instead; the batch is re-picked
    // from what remains at this same instant.
    std::vector<size_t> stale;
    for (size_t idx : dispatch_batch) {
      if (now_ns - replica.queue_[idx].record.arrival_ns > deadline_ns) {
        stale.push_back(idx);
      }
    }
    if (!stale.empty()) {
      std::sort(stale.begin(), stale.end());
      for (size_t idx : stale) {
        shed(replica.queue_[idx].record, dispatch_dev, now_ns);
        if (hooks.on_drop) {
          hooks.on_drop(replica.queue_[idx].record.request, now_ns);
        }
      }
      unqueue(replica, std::move(stale));
      continue;
    }

    const DeviceConfig& device_config = replica.engine().device().config();
    const int64_t batch_id = static_cast<int64_t>(batches.size());
    int64_t span_id = -1;
    if (tracer != nullptr) {
      tracer->SetServeNow(now_us);
      const std::string span_name =
          single ? "serve/batch#" + std::to_string(batch_id)
                 : "serve/dev" + std::to_string(dispatch_dev) + "/batch#" +
                       std::to_string(batch_id);
      span_id = tracer->OpenSpan(span_name, "serve");
      tracer->SetServeTrack(span_id, dispatch_dev);
    }

    std::vector<double> member_cycles;
    std::vector<ExecPhaseCycles> member_exec;
    member_cycles.reserve(dispatch_batch.size());
    member_exec.reserve(dispatch_batch.size());
    replica.flight_.clear();
    int64_t warm = 0, plan_hits = 0, plan_misses = 0;
    for (size_t idx : dispatch_batch) {
      RequestRecord record = replica.queue_[idx].record;
      const MemberRun run = execute(dispatch_dev, record.request, now_ns);
      warm += run.warm ? 1 : 0;
      plan_hits += static_cast<int64_t>(run.plan_hits);
      plan_misses += static_cast<int64_t>(run.plan_misses);

      record.warm = run.warm;
      record.device = dispatch_dev;
      record.batch_id = batch_id;
      record.dispatch_ns = now_ns;
      record.service_cycles = run.cycles.TotalCycles();
      member_cycles.push_back(record.service_cycles);
      // Kernel-span linkage for the blame profiler: the engine's per-step
      // cycle breakdown, bucketed into the PhaseTrace execution phases.
      ExecPhaseCycles exec;
      exec.map = run.cycles.MapCycles();
      exec.map_delta = run.cycles.map_delta;
      exec.gather = run.cycles.gather;
      exec.gemm = run.cycles.gemm;
      exec.scatter = run.cycles.scatter;
      exec.other = run.cycles.metadata + run.cycles.elementwise;
      member_exec.push_back(exec);
      replica.flight_.push_back(std::move(record));
    }

    BatchRecord batch;
    batch.id = batch_id;
    batch.batch_class = replica.flight_.front().request.batch_class;
    batch.device = dispatch_dev;
    batch.size = static_cast<int64_t>(replica.flight_.size());
    batch.dispatch_ns = now_ns;
    batch.service_cycles = BatchServiceCycles(member_cycles, kStreamPoolSize);
    batch.serial_cycles = std::accumulate(member_cycles.begin(), member_cycles.end(), 0.0);
    // The virtual clock knows the completion instant at dispatch.
    batch.completion_ns = now_ns + NsFromCycles(device_config, batch.service_cycles);
    replica.busy_ = true;
    replica.flight_end_ns_ = batch.completion_ns;
    batches.push_back(batch);

    // Finalise each member's phase trace now: the replica's busy integral is
    // fully closed (BeginBatch below opens the new flight interval).
    for (size_t m = 0; m < replica.flight_.size(); ++m) {
      RequestRecord& record = replica.flight_[m];
      record.completion_ns = batch.completion_ns;
      record.trace = reqtrace.FinalizeRequest(
          dispatch_dev, record.request.id, record.arrival_ns, now_ns, batch.completion_ns,
          NsFromCycles(device_config, member_cycles[m]), member_exec[m]);
    }
    reqtrace.BeginBatch(dispatch_dev, now_ns);

    if (span_id >= 0) {
      tracer->SetAttr(span_id, "batch_size", batch.size);
      tracer->SetAttr(span_id, "batch_class", static_cast<int64_t>(batch.batch_class));
      tracer->SetAttr(span_id, "device", static_cast<int64_t>(dispatch_dev));
      tracer->SetAttr(span_id, "service_cycles", batch.service_cycles);
      tracer->SetAttr(span_id, "serial_cycles", batch.serial_cycles);
      for (const RequestRecord& record : replica.flight_) {
        // Flow step at dispatch, bound inside the batch span.
        tracer->AddServeFlow("req#" + std::to_string(record.request.id),
                             record.request.id, 't', dispatch_dev);
      }
      tracer->SetServeNow(NsToUs(batch.completion_ns));
      tracer->CloseSpan(span_id);
    }

    unqueue(replica, std::move(dispatch_batch));
    if (telemetry_ != nullptr) {
      telemetry_->OnDispatch(now_us, dispatch_dev, batch_id, batch.size, warm, plan_hits,
                             plan_misses, NsToUs(batch.completion_ns),
                             static_cast<int64_t>(replica.queue_.size()));
    }
  }

  for (auto& replica : replicas_) {
    MINUET_CHECK(replica->queue_.empty());
    MINUET_CHECK(!replica->busy_);
  }

  std::stable_sort(records.begin(), records.end(),
                   [](const RequestRecord& a, const RequestRecord& b) {
                     return a.request.id < b.request.id;
                   });

  // Per-device accounting: each replica summarised over its own slice of the
  // records, plus cache-stat deltas for this run.
  std::vector<DeviceSummary> devices;
  devices.reserve(replicas_.size());
  for (size_t k = 0; k < replicas_.size(); ++k) {
    Replica& replica = *replicas_[k];
    DeviceSummary dev;
    dev.device = static_cast<int>(k);
    dev.name = replica.engine().device().config().name;
    std::vector<RequestRecord> dev_requests;
    std::vector<BatchRecord> dev_batches;
    for (const RequestRecord& record : records) {
      if (record.device == static_cast<int>(k)) {
        dev_requests.push_back(record);
      }
    }
    for (const BatchRecord& batch : batches) {
      if (batch.device == static_cast<int>(k)) {
        dev_batches.push_back(batch);
      }
    }
    dev.summary = Summarize(dev_requests, dev_batches, cfg);
    const SessionStats stats = replica.session().stats();
    dev.plan_hits = stats.plan.hits - session_base[k].plan.hits;
    dev.plan_misses = stats.plan.misses - session_base[k].plan.misses;
    dev.plan_hit_rate = SafeDiv(static_cast<double>(dev.plan_hits),
                                static_cast<double>(dev.plan_hits + dev.plan_misses));
    dev.pool_reuses = stats.pool.reuses - session_base[k].pool.reuses;
    dev.pool_allocations = stats.pool.allocations - session_base[k].pool.allocations;
    devices.push_back(std::move(dev));
  }

  FleetResult result;
  result.config = config_;
  result.requests = std::move(records);
  result.batches = std::move(batches);
  result.summary = SummarizeFleet(result.requests, result.batches, config_, devices);
  if (telemetry_ != nullptr) {
    telemetry_->Finish();
    result.alerts = telemetry_->alerts();
  }
  return result;
}

FleetSummary SummarizeFleet(const std::vector<RequestRecord>& requests,
                            const std::vector<BatchRecord>& batches,
                            const FleetConfig& config,
                            const std::vector<DeviceSummary>& devices) {
  FleetSummary fleet;
  fleet.fleet = Summarize(requests, batches, config.scheduler);
  // Fleet utilization is busy time over N server-durations: a two-replica
  // fleet half-busy on each replica reports 0.5, same as one replica would.
  const double n = devices.empty() ? 1.0 : static_cast<double>(devices.size());
  fleet.fleet.utilization = SafeDiv(fleet.fleet.server_busy_us, n * fleet.fleet.duration_us);

  fleet.devices = devices;
  for (DeviceSummary& dev : fleet.devices) {
    // Per-device utilization measures against the fleet-wide duration so the
    // numbers compare across replicas of one run.
    dev.summary.utilization = SafeDiv(dev.summary.server_busy_us, fleet.fleet.duration_us);
  }

  // Per-priority tiers over the whole fleet.
  std::map<int, std::vector<double>> tier_latency;
  std::map<int, TierSummary> tiers;
  for (const RequestRecord& record : requests) {
    TierSummary& tier = tiers[record.request.priority];
    tier.priority = record.request.priority;
    ++tier.offered;
    if (record.shed) {
      ++tier.shed;
    } else {
      ++tier.completed;
      tier_latency[record.request.priority].push_back(record.LatencyUs());
    }
  }
  for (auto& [priority, tier] : tiers) {
    std::vector<double>& latency = tier_latency[priority];
    tier.latency_p50_us = Percentile(latency, 50.0);
    tier.latency_p99_us = Percentile(latency, 99.0);
    fleet.tiers.push_back(tier);
  }

  // Plan-cache hit asymmetry across replicas that saw any lookups (see
  // FleetSummary: least-loaded drives it up, affinity collapses it).
  bool any = false;
  for (const DeviceSummary& dev : fleet.devices) {
    if (dev.plan_hits + dev.plan_misses == 0) {
      continue;
    }
    if (!any) {
      fleet.plan_hit_rate_min = dev.plan_hit_rate;
      fleet.plan_hit_rate_max = dev.plan_hit_rate;
      any = true;
    } else {
      fleet.plan_hit_rate_min = std::min(fleet.plan_hit_rate_min, dev.plan_hit_rate);
      fleet.plan_hit_rate_max = std::max(fleet.plan_hit_rate_max, dev.plan_hit_rate);
    }
  }
  fleet.plan_hit_asymmetry = fleet.plan_hit_rate_max - fleet.plan_hit_rate_min;
  return fleet;
}

void PublishFleetMetrics(const FleetResult& result, trace::MetricsRegistry& registry) {
  PublishServeMetrics(result.config.scheduler, result.requests, result.summary.fleet, registry);

  registry.GetCounter("serve/fleet/devices").Set(static_cast<int64_t>(result.summary.devices.size()));
  registry.GetLabel("serve/fleet/routing").Set(RoutingPolicyName(result.config.routing));
  registry.GetGauge("serve/fleet/plan_hit_rate_min").Set(result.summary.plan_hit_rate_min);
  registry.GetGauge("serve/fleet/plan_hit_rate_max").Set(result.summary.plan_hit_rate_max);
  registry.GetGauge("serve/fleet/plan_hit_asymmetry").Set(result.summary.plan_hit_asymmetry);

  for (const DeviceSummary& dev : result.summary.devices) {
    const std::string prefix = "serve/dev" + std::to_string(dev.device) + "/";
    registry.GetLabel(prefix + "name").Set(dev.name);
    registry.GetCounter(prefix + "offered").Set(dev.summary.offered);
    registry.GetCounter(prefix + "completed").Set(dev.summary.completed);
    registry.GetCounter(prefix + "shed").Set(dev.summary.shed);
    registry.GetCounter(prefix + "batches").Set(dev.summary.num_batches);
    registry.GetCounter(prefix + "warm_requests").Set(dev.summary.warm_requests);
    registry.GetCounter(prefix + "plan_hits").Set(static_cast<int64_t>(dev.plan_hits));
    registry.GetCounter(prefix + "plan_misses").Set(static_cast<int64_t>(dev.plan_misses));
    registry.GetGauge(prefix + "plan_hit_rate").Set(dev.plan_hit_rate);
    registry.GetGauge(prefix + "utilization").Set(dev.summary.utilization);
    registry.GetGauge(prefix + "latency_p99_us").Set(dev.summary.latency_p99_us);
  }
}

void PublishDeviceMetrics(const std::vector<Engine*>& engines, const RunSession* session,
                          trace::MetricsRegistry& registry) {
  if (engines.size() == 1) {
    engines[0]->device().PublishMetrics(registry);
    if (session != nullptr) {
      session->PublishMetrics(registry);
    }
    return;
  }
  for (size_t k = 0; k < engines.size(); ++k) {
    engines[k]->device().PublishMetrics(registry, "dev" + std::to_string(k));
  }
}

}  // namespace serve
}  // namespace minuet
