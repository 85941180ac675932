// Per-request causal tracing on the serving clock.
//
// Every request that passes through the fleet loop carries a PhaseTrace: a
// decomposition of its end-to-end latency into the phases a serving operator
// can actually act on — where did the p99 go? The segments are recorded at
// the exact scheduler decision points (admit, dispatch, batch completion),
// not reconstructed after the fact, and they obey a hard invariant:
//
//   admission + server_wait + batch_delay
//     + map + map_delta + gather + gemm + scatter + exec_other + stream_wait
//     ==  e2e
//
// bit-exactly, CHECK-enforced at record time. Every boundary is a timestamp
// of the integer-nanosecond serving clock (src/serve/request.h), and every
// segment is an int64 difference of those boundaries, so they telescope
// exactly.
//
// The segments, in causal order:
//
//   admission_ns    — time between arrival and admission to a replica queue.
//                     Admission is instantaneous on the event clock, so this
//                     is always 0 today; the field keeps the schema honest
//                     about where an admission-control delay would land.
//   server_wait_ns  — the part of queue time the routed replica spent busy
//                     serving earlier batches: the request could not have
//                     dispatched sooner no matter what the batcher did.
//                     Measured as the replica's busy-time integral over
//                     [arrival, dispatch] (kept in closed flight intervals
//                     plus the partial in-flight interval at arrival).
//   batch_delay_ns  — the rest of queue time: the replica was idle but the
//                     batcher held the request (delay timer building a fuller
//                     batch, or the admission policy ordered others first).
//                     Exact residual: queue - server_wait.
//   map/map_delta/gather/gemm/scatter/exec_other_ns
//                   — the request's own device execution, split by the
//                     engine's per-step cycle breakdown (kernel-span
//                     linkage): map = build + query, map_delta = incremental
//                     sorted-array maintenance on sequence frames (zero for
//                     ordinary requests; a frame whose chain broke shows the
//                     cost back in map instead — that contrast is how
//                     `minuet_prof explain` blames map reuse misses),
//                     exec_other = metadata + elementwise. The split
//                     quantises proportionally on cumulative boundaries so
//                     the parts sum to exec_ns exactly regardless of
//                     rounding.
//   stream_wait_ns  — service time beyond the request's own execution: the
//                     batch's overlapped makespan is max(longest member,
//                     serial/streams), so short members wait for the batch.
//                     Exact residual: service - exec.
//
// Shed requests carry an all-zero PhaseTrace (e2e 0): the invariant holds
// trivially and blame reports count them separately.
//
// ReqTraceRecorder is the loop-side recorder: the fleet scheduler owns one
// per run and drives it, in serving-clock nanoseconds, from the same branches
// that build RequestRecords, so the trace can never disagree with the report. Recording is always on — the
// invariant is checked on every request of every run; only the JSONL dump
// (WriteRequestDump) is opt-in.
#ifndef SRC_SERVE_REQTRACE_H_
#define SRC_SERVE_REQTRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace minuet {
namespace serve {

struct RequestRecord;

// Per-request device-execution cycles by phase, from the engine's
// StepBreakdown (map = map_build + map_query, other = metadata +
// elementwise). Cycles, not time: the recorder splits the request's
// execution time proportionally.
struct ExecPhaseCycles {
  double map = 0.0;
  double map_delta = 0.0;  // incremental map maintenance (sequence frames)
  double gather = 0.0;
  double gemm = 0.0;
  double scatter = 0.0;
  double other = 0.0;
  double Total() const { return map + map_delta + gather + gemm + scatter + other; }
};

struct PhaseTrace {
  // The ten segments (sum == e2e_ns exactly; see file comment).
  int64_t admission_ns = 0;
  int64_t server_wait_ns = 0;
  int64_t batch_delay_ns = 0;
  int64_t map_ns = 0;
  int64_t map_delta_ns = 0;
  int64_t gather_ns = 0;
  int64_t gemm_ns = 0;
  int64_t scatter_ns = 0;
  int64_t exec_other_ns = 0;
  int64_t stream_wait_ns = 0;

  // Derived totals, serialised for consumers (each is an exact sum of the
  // segments above: queue = server_wait + batch_delay + admission, exec =
  // map + map_delta + gather + gemm + scatter + exec_other, service = exec +
  // stream_wait, e2e = queue + service).
  int64_t queue_ns = 0;
  int64_t exec_ns = 0;
  int64_t service_ns = 0;
  int64_t e2e_ns = 0;

  int64_t SegmentSum() const {
    return admission_ns + server_wait_ns + batch_delay_ns + map_ns + map_delta_ns + gather_ns +
           gemm_ns + scatter_ns + exec_other_ns + stream_wait_ns;
  }
};

// Loop-side recorder. One instance covers one scheduler run; the fleet loop
// calls the hooks at its own decision points:
//
//   AdmitRequest    — arrival admitted to a replica queue (snapshots the
//                     replica's busy integral, the server_wait baseline);
//   BeginBatch      — a batch left the queue and occupies the replica
//                     (after its members were finalised via FinalizeRequest);
//   EndBatch        — the batch completed (closes the busy interval);
//   FinalizeRequest — called per batch member at dispatch, when the
//                     deterministic clock already knows the completion time;
//                     returns the request's full PhaseTrace and CHECKs the
//                     segment-sum invariant.
class ReqTraceRecorder {
 public:
  // `num_devices` replicas, all idle, busy integrals zeroed.
  void Reset(int num_devices);

  void AdmitRequest(int device, int64_t request_id, int64_t arrival_ns);

  // `own_exec_ns` is the request's own execution time on the device (at most
  // the batch's service time); `cycles` its per-phase breakdown. Requires:
  // AdmitRequest(device, request_id, ...) happened; the replica is idle
  // (FinalizeRequest for every member precedes BeginBatch).
  PhaseTrace FinalizeRequest(int device, int64_t request_id, int64_t arrival_ns,
                             int64_t dispatch_ns, int64_t completion_ns,
                             int64_t own_exec_ns, const ExecPhaseCycles& cycles);

  void BeginBatch(int device, int64_t dispatch_ns);
  void EndBatch(int device, int64_t completion_ns);

  // Replica busy-time integral in ns at serving-clock time t_ns: closed
  // flight intervals plus the partial current flight. Exposed for tests.
  int64_t BusyIntegral(int device, int64_t t_ns) const;

 private:
  struct DeviceState {
    int64_t busy_closed_ns = 0;     // sum of completed flight intervals
    bool in_flight = false;
    int64_t flight_dispatch_ns = 0;
  };

  std::vector<DeviceState> devices_;
  // request id -> busy integral of its routed replica at arrival. Erased at
  // finalize; stop-drain sheds may leave entries behind (per-run object).
  std::map<int64_t, int64_t> wait_base_ns_;
};

// Line-oriented JSONL dump of per-request records: one header line
// ({"request_dump":1,...}) then one JSON object per request, ordered by
// request id. Pure serving-clock data — byte-identical across replays.
// `slo_us` rides in the header so `minuet_prof explain` can pick the tail
// without being told the SLO again.
std::string RequestDumpJsonl(const std::vector<RequestRecord>& requests, double slo_us);

// Writes RequestDumpJsonl to `path`. False on I/O failure.
bool WriteRequestDump(const std::vector<RequestRecord>& requests, double slo_us,
                      const std::string& path);

}  // namespace serve
}  // namespace minuet

#endif  // SRC_SERVE_REQTRACE_H_
