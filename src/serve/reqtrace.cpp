#include "src/serve/reqtrace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/serve/request.h"
#include "src/util/check.h"
#include "src/util/json_writer.h"

namespace minuet {
namespace serve {

void ReqTraceRecorder::Reset(int num_devices) {
  MINUET_CHECK_GE(num_devices, 1);
  devices_.assign(static_cast<size_t>(num_devices), DeviceState{});
  wait_base_ns_.clear();
}

int64_t ReqTraceRecorder::BusyIntegral(int device, int64_t t_ns) const {
  MINUET_CHECK_GE(device, 0);
  MINUET_CHECK_LT(static_cast<size_t>(device), devices_.size());
  const DeviceState& state = devices_[static_cast<size_t>(device)];
  int64_t busy = state.busy_closed_ns;
  if (state.in_flight) {
    busy += std::max<int64_t>(0, t_ns - state.flight_dispatch_ns);
  }
  return busy;
}

void ReqTraceRecorder::AdmitRequest(int device, int64_t request_id, int64_t arrival_ns) {
  const auto [it, inserted] =
      wait_base_ns_.emplace(request_id, BusyIntegral(device, arrival_ns));
  (void)it;
  MINUET_CHECK(inserted) << "request " << request_id << " admitted twice";
}

void ReqTraceRecorder::BeginBatch(int device, int64_t dispatch_ns) {
  MINUET_CHECK_GE(device, 0);
  MINUET_CHECK_LT(static_cast<size_t>(device), devices_.size());
  DeviceState& state = devices_[static_cast<size_t>(device)];
  MINUET_CHECK(!state.in_flight) << "replica " << device << " dispatched while busy";
  state.in_flight = true;
  state.flight_dispatch_ns = dispatch_ns;
}

void ReqTraceRecorder::EndBatch(int device, int64_t completion_ns) {
  MINUET_CHECK_GE(device, 0);
  MINUET_CHECK_LT(static_cast<size_t>(device), devices_.size());
  DeviceState& state = devices_[static_cast<size_t>(device)];
  MINUET_CHECK(state.in_flight) << "replica " << device << " completed while idle";
  const int64_t flight_ns = completion_ns - state.flight_dispatch_ns;
  MINUET_CHECK_GE(flight_ns, 0);
  state.busy_closed_ns += flight_ns;
  state.in_flight = false;
}

PhaseTrace ReqTraceRecorder::FinalizeRequest(int device, int64_t request_id,
                                             int64_t arrival_ns, int64_t dispatch_ns,
                                             int64_t completion_ns, int64_t own_exec_ns,
                                             const ExecPhaseCycles& cycles) {
  MINUET_CHECK_GE(dispatch_ns, arrival_ns);
  MINUET_CHECK_GE(completion_ns, dispatch_ns);

  PhaseTrace trace;
  trace.queue_ns = dispatch_ns - arrival_ns;
  trace.service_ns = completion_ns - dispatch_ns;
  trace.e2e_ns = completion_ns - arrival_ns;

  // Queue split: busy integral of the routed replica over [arrival,
  // dispatch]. FinalizeRequest runs before BeginBatch, so the replica is
  // idle and the integral at dispatch is entirely closed intervals; every
  // interval counted is a subinterval of [arrival, dispatch], so the wait is
  // bounded by the queue time exactly (no clamp needed — checked).
  const auto it = wait_base_ns_.find(request_id);
  MINUET_CHECK(it != wait_base_ns_.end())
      << "request " << request_id << " finalised without admission";
  const int64_t wait_base = it->second;
  wait_base_ns_.erase(it);
  trace.server_wait_ns = BusyIntegral(device, dispatch_ns) - wait_base;
  MINUET_CHECK_GE(trace.server_wait_ns, 0);
  MINUET_CHECK_LE(trace.server_wait_ns, trace.queue_ns);
  trace.admission_ns = 0;  // admission is instantaneous on the event clock
  trace.batch_delay_ns = trace.queue_ns - trace.server_wait_ns - trace.admission_ns;

  // Service split: the batch's overlapped makespan is >= every member's own
  // execution (BatchServiceCycles takes a max, and the cycles -> ns
  // conversion is monotone), so the residual is a true non-negative count.
  MINUET_CHECK_LE(own_exec_ns, trace.service_ns);
  trace.exec_ns = own_exec_ns;
  trace.stream_wait_ns = trace.service_ns - trace.exec_ns;

  // Execution split by phase cycles: quantise cumulative boundaries, take
  // differences. Monotone boundaries make every part non-negative and the
  // parts telescope to exec_ns exactly regardless of rounding.
  const double total_cycles = cycles.Total();
  if (total_cycles > 0.0) {
    const double phase_cycles[6] = {cycles.map,  cycles.map_delta, cycles.gather,
                                    cycles.gemm, cycles.scatter,   cycles.other};
    int64_t* const phase_ns[6] = {&trace.map_ns,     &trace.map_delta_ns, &trace.gather_ns,
                                  &trace.gemm_ns,    &trace.scatter_ns,   &trace.exec_other_ns};
    double cum = 0.0;
    int64_t prev_bound = 0;
    for (int i = 0; i < 6; ++i) {
      cum += phase_cycles[i];
      const int64_t bound =
          i == 5 ? trace.exec_ns
                 : std::llround(static_cast<double>(trace.exec_ns) * (cum / total_cycles));
      MINUET_CHECK_GE(bound, prev_bound);
      *phase_ns[i] = bound - prev_bound;
      prev_bound = bound;
    }
  } else {
    trace.exec_other_ns = trace.exec_ns;
  }

  // The hard invariant this whole file exists for.
  MINUET_CHECK_EQ(trace.SegmentSum(), trace.e2e_ns)
      << "request " << request_id << ": phase segments do not sum to e2e latency";
  return trace;
}

std::string RequestDumpJsonl(const std::vector<RequestRecord>& requests, double slo_us) {
  std::string out;
  {
    JsonWriter w;
    w.BeginObject();
    w.KV("request_dump", static_cast<int64_t>(1));
    w.KV("slo_us", slo_us);
    w.KV("requests", static_cast<int64_t>(requests.size()));
    w.EndObject();
    out += w.TakeString();
    out += '\n';
  }
  for (const RequestRecord& record : requests) {
    JsonWriter w;
    w.BeginObject();
    w.KV("id", record.request.id);
    w.KV("arrival_us", record.request.arrival_us);
    w.KV("priority", record.request.priority);
    w.KV("batch_class", record.request.batch_class);
    w.KV("points", record.request.points);
    w.KV("client", record.request.client);
    w.KV("device", record.device);
    w.KV("shed", record.shed);
    w.KV("warm", record.warm);
    w.KV("batch", record.batch_id);
    w.KV("dispatch_us", NsToUs(record.dispatch_ns));
    w.KV("completion_us", NsToUs(record.completion_ns));
    const PhaseTrace& t = record.trace;
    w.KV("e2e_ns", t.e2e_ns);
    w.KV("queue_ns", t.queue_ns);
    w.KV("service_ns", t.service_ns);
    w.KV("exec_ns", t.exec_ns);
    w.KV("admission_ns", t.admission_ns);
    w.KV("server_wait_ns", t.server_wait_ns);
    w.KV("batch_delay_ns", t.batch_delay_ns);
    w.KV("map_ns", t.map_ns);
    w.KV("map_delta_ns", t.map_delta_ns);
    w.KV("gather_ns", t.gather_ns);
    w.KV("gemm_ns", t.gemm_ns);
    w.KV("scatter_ns", t.scatter_ns);
    w.KV("exec_other_ns", t.exec_other_ns);
    w.KV("stream_wait_ns", t.stream_wait_ns);
    w.EndObject();
    out += w.TakeString();
    out += '\n';
  }
  return out;
}

bool WriteRequestDump(const std::vector<RequestRecord>& requests, double slo_us,
                      const std::string& path) {
  return WriteTextFile(path, RequestDumpJsonl(requests, slo_us));
}

}  // namespace serve
}  // namespace minuet
