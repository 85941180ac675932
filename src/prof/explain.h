// Tail-latency blame profiler for minuet_prof: the reader half of the
// per-request causal tracing layer (src/serve/reqtrace.h).
//
// `minuet_serve --dump-requests` writes one JSONL line per request with the
// request's phase segments (integer ns, sum == e2e bit-exactly). This module
// loads that dump, selects the latency tail — every completed request above
// the SLO by default, or the worst-k by e2e — and aggregates a deterministic
// blame decomposition: how much of the tail's end-to-end latency each causal
// phase owns (queueing on a busy replica vs batch-formation delay vs the
// gather/GEMM/scatter execution split vs stream wait), overall and per
// priority tier / per replica, plus the plan-cache miss penalty (mean cold
// minus mean warm execution time). Everything is computed from the dump's
// integers with fixed iteration order, so the rendered report is
// byte-identical across replays of one workload — `explain` output is
// regression-gateable exactly like the artifacts it reads.
#ifndef SRC_PROF_EXPLAIN_H_
#define SRC_PROF_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/json_reader.h"

namespace minuet {
namespace prof {

// One request row of the dump. Mirrors the JSONL schema; segment fields are
// the PhaseTrace integers.
struct DumpRequest {
  int64_t id = 0;
  double arrival_us = 0.0;
  int64_t priority = 0;
  int64_t batch_class = 0;
  int64_t points = 0;
  int64_t device = 0;
  bool shed = false;
  bool warm = false;
  int64_t batch = -1;
  double dispatch_us = 0.0;
  double completion_us = 0.0;
  int64_t e2e_ns = 0;
  int64_t queue_ns = 0;
  int64_t service_ns = 0;
  int64_t exec_ns = 0;
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
};

struct RequestDump {
  double slo_us = 0.0;  // from the header line (the run's configured SLO)
  std::vector<DumpRequest> requests;  // dump order (ascending request id)
};

// Parses an already-read JSONL document (header line + one request per
// line). False + *error when the header is missing or a line is malformed.
bool LoadRequestDump(const std::vector<JsonValue>& lines, RequestDump* out,
                     std::string* error);
bool LoadRequestDumpFile(const std::string& path, RequestDump* out, std::string* error);

struct ExplainOptions {
  // > 0: tail = the worst-k completed requests by e2e (ties to the lower
  // request id, so the selection is deterministic). <= 0: tail = every
  // completed request with e2e above the SLO.
  int64_t worst_k = 0;
  // >= 0 overrides the dump header's SLO.
  double slo_us = -1.0;
};

// Blame of one causal phase, aggregated over the tail.
struct PhaseBlame {
  std::string phase;        // "server_wait", "batch_delay", "gemm", ...
  int64_t tail_total_ns = 0;
  double tail_share = 0.0;  // of the tail's summed e2e (0 when tail empty)
  double all_share = 0.0;   // same over every completed request
  // Per-request percentiles of this phase over the tail, microseconds.
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

// Blame of one group (priority tier or replica) over its tail slice.
struct GroupBlame {
  int64_t key = 0;  // priority value or device id
  std::string name; // replica rows carry "dev<k>", tier rows "tier<p>"
  int64_t offered = 0;
  int64_t completed = 0;
  int64_t shed = 0;
  int64_t tail = 0;          // tail members in this group
  double e2e_p50_us = 0.0;   // over the group's completed requests
  double e2e_p99_us = 0.0;
  double mean_exec_us = 0.0; // device heterogeneity signal (completed)
  // Largest blame share over the group's tail; "-" when it has no tail
  // members.
  std::string top_phase = "-";
  double top_share = 0.0;
};

struct Explain {
  double slo_us = 0.0;
  std::string tail_rule;  // "above-slo" | "worst-k"
  int64_t offered = 0;
  int64_t completed = 0;
  int64_t shed = 0;
  int64_t tail_count = 0;
  double e2e_p50_us = 0.0;  // over completed
  double e2e_p95_us = 0.0;
  double e2e_p99_us = 0.0;
  std::vector<PhaseBlame> phases;   // fixed causal order
  std::vector<GroupBlame> tiers;    // ascending priority
  std::vector<GroupBlame> devices;  // ascending device id
  // Plan-cache miss penalty over completed requests: mean cold execution
  // minus mean warm execution (0 when either side is empty).
  int64_t warm_count = 0;
  int64_t cold_count = 0;
  double warm_exec_mean_us = 0.0;
  double cold_exec_mean_us = 0.0;
  double plan_miss_penalty_us = 0.0;
};

// Deterministic aggregation; degenerate dumps (empty, all shed, empty tail)
// produce all-zero sections instead of NaNs.
Explain BuildExplain(const RequestDump& dump, const ExplainOptions& options);

// Human-readable blame report / two-run comparison. Pure functions of their
// inputs — byte-identical across replays.
std::string FormatExplain(const Explain& explain);
std::string FormatExplainDiff(const Explain& before, const Explain& after);

}  // namespace prof
}  // namespace minuet

#endif  // SRC_PROF_EXPLAIN_H_
