// Profile model for minuet_prof and the bench regression gate.
//
// A RunProfile is a device-centric view of one engine run, reconstructed from
// either observability artifact the CLI writes:
//   - a metrics snapshot (minuet_run --metrics=...)  — "metrics" source
//   - a Chrome trace     (minuet_run --trace=...)    — "trace" source
// Both carry the per-kernel aggregates the simulator attributes, and the two
// profiles of one run agree on the run total and on each kernel's simulated
// time, launches, L2 lookups and hit ratio, bandwidth utilisation and
// roofline class (EngineTraceTest pins them). Three columns are defined
// differently and can differ: a kernel's occupancy (the device aggregate in a
// snapshot, a duration-weighted mean over launches in a trace), the
// arithmetic intensity of a kernel that moved no DRAM bytes ("-" from a
// snapshot's null, "inf" from a trace), and a layer's sim ms (net of the
// stream-pool overlap in a snapshot, the layer span's serial duration in a
// trace). Host columns come from a trace only.
//
// The baseline half of this header implements the bench regression gate:
// MakeBaselineJson records one `--json` report per bench, and CheckBaseline
// compares fresh reports against a committed baseline for exact equality,
// reporting every value that differs.
#ifndef SRC_PROF_PROFILE_H_
#define SRC_PROF_PROFILE_H_

#include <string>
#include <vector>

#include "src/util/json_reader.h"

namespace minuet {
namespace prof {

struct KernelProfile {
  std::string name;
  double millis = 0.0;
  // Host wall-clock spent simulating this kernel, accumulated from the trace's
  // host track (tid 0). 0 when the artifact has no host durations (metrics
  // snapshots, synthetic traces).
  double host_ms = 0.0;
  double cycles = 0.0;
  int64_t launches = 0;
  int64_t blocks = 0;
  int64_t waves = 0;
  double occupancy = 0.0;
  double dram_bw_util = 0.0;
  // NaN when the artifact recorded JSON null (compute-only kernel: +inf
  // intensity, serialised as null by the writer).
  double arith_intensity = 0.0;
  double l2_hit_ratio = 0.0;
  int64_t l2_lookups = 0;  // L2 hits + misses
  std::string roofline = {};  // launch_bound | compute_bound | dram_bound | l2_bound
};

struct LayerProfile {
  int64_t conv_index = 0;
  double sim_ms = 0.0;
  // Host wall-clock of the layer span, from its host-track (tid 0) twin. 0
  // when the artifact has no host durations.
  double host_ms = 0.0;
  double padding_ratio = 0.0;
  double launches = 0.0;
  double gemm_kernels = 0.0;
};

struct RunProfile {
  std::string source;  // "metrics" or "trace"
  std::string device;  // DeviceConfig name when the artifact carries it
  double total_ms = 0.0;
  // Host wall-clock view, present only when the artifact carries host span
  // durations (a Chrome trace's tid-0 track). FormatReport then adds a
  // host_ms and sim/host column to the kernel and layer tables: how much
  // simulated time each host millisecond buys, the simulator's own
  // throughput.
  bool has_host_time = false;
  double total_host_ms = 0.0;
  double total_occupancy = 0.0;
  double total_dram_bw_util = 0.0;
  std::string total_roofline;
  std::vector<KernelProfile> kernels;  // sorted by millis, descending
  std::vector<LayerProfile> layers;    // sorted by conv_index
};

// Loads a profile from a parsed artifact. Auto-detects the artifact kind
// (metrics snapshot vs Chrome trace). False + *error on unrecognised input.
bool LoadRunProfile(const JsonValue& doc, RunProfile* out, std::string* error);
bool LoadRunProfileFile(const std::string& path, RunProfile* out, std::string* error);

// Human-readable report: top-kernels table (sorted by simulated time, with
// % of run, occupancy, BW utilisation, roofline class) and a per-layer
// hot-path summary. `top_n <= 0` means all kernels.
std::string FormatReport(const RunProfile& profile, int top_n);

struct KernelDelta {
  std::string name;
  bool in_before = false;
  bool in_after = false;
  double before_ms = 0.0;
  double after_ms = 0.0;
  double delta_ms = 0.0;  // after - before
  std::string before_roofline;
  std::string after_roofline;
};

struct DiffResult {
  double before_total_ms = 0.0;
  double after_total_ms = 0.0;
  std::vector<KernelDelta> deltas;  // sorted by |delta_ms|, descending
};

DiffResult DiffProfiles(const RunProfile& before, const RunProfile& after);

// A kernel regresses when it slows down by more than `threshold` (relative,
// e.g. 0.05 = 5%) AND by at least `min_ms` of simulated time (absolute floor
// so sub-microsecond jitter on tiny kernels cannot fail a gate). Kernels that
// only exist in `after` count when they cost at least `min_ms`.
std::vector<const KernelDelta*> Regressions(const DiffResult& diff, double threshold,
                                            double min_ms);

std::string FormatDiff(const DiffResult& diff, double threshold, double min_ms);

// --- serve report ---------------------------------------------------------
//
// minuet_serve --json writes a serving-run artifact ({"serve_report": 1,...}):
// SLO summary plus per-request/per-batch records, with the device's metrics
// snapshot embedded under "device_metrics". `minuet_prof report` detects it
// and prints the latency-percentile/shed-rate view in front of the usual
// top-kernels table (reconstructed from the embedded snapshot).

struct ServeProfile {
  // Deployment context + scheduler configuration.
  std::string device;
  std::string network;
  std::string engine;
  std::string process;  // arrival process name
  std::string policy;   // admission policy name
  double rate_rps = 0.0;
  int64_t queue_capacity = 0;
  int64_t max_batch_size = 0;
  double max_queue_delay_us = 0.0;
  double slo_us = 0.0;

  // SLO summary (mirrors serve::ServeSummary).
  int64_t offered = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  int64_t completed = 0;
  int64_t num_batches = 0;
  int64_t warm_requests = 0;
  double duration_us = 0.0;
  double utilization = 0.0;
  double throughput_rps = 0.0;
  double goodput_rps = 0.0;
  double shed_rate = 0.0;
  double slo_attainment = 0.0;
  double mean_batch_size = 0.0;
  double queue_p50_us = 0.0, queue_p95_us = 0.0, queue_p99_us = 0.0;
  double service_p50_us = 0.0, service_p95_us = 0.0, service_p99_us = 0.0;
  double latency_p50_us = 0.0, latency_p95_us = 0.0, latency_p99_us = 0.0;

  // Kernel view rebuilt from the embedded "device_metrics" snapshot; absent
  // when the report was written without one.
  bool has_device_profile = false;
  RunProfile device_profile;
};

// True when the parsed document is a minuet_serve report artifact.
bool IsServeReport(const JsonValue& doc);

bool LoadServeProfile(const JsonValue& doc, ServeProfile* out, std::string* error);

// Latency-percentile + shed-rate tables, followed by the top-kernels table
// when the report embeds a device snapshot. `top_n` as in FormatReport.
std::string FormatServeReport(const ServeProfile& profile, int top_n);

// --- bench baseline -------------------------------------------------------
//
// Baseline schema (versioned, committed as BENCH_BASELINE.json):
//   {"baseline_version": 2,
//    "benches": {"<bench>": {"meta": {...}, "rows": [{...}]}}}
// `meta` and `rows` are the bench report's own JSON values minus host keys:
// any key mentioning host or wall time measures the machine, not the
// simulator. Every simulated value is exact, so the check is equality: each
// baseline key must be in the report with an equal value (numbers compare
// with ==; the writer's %.17g round-trips every double). Rows are matched by
// index.

struct BaselineViolation {
  std::string bench;
  int row = -1;          // -1 for bench-level problems (missing report, row count, meta)
  std::string key;
  std::string message;   // human-readable, includes expected vs actual
};

// Records bench reports (each the parsed output of `<bench> --json`), one per
// bench, into a baseline document. Returns empty string + *error on failure,
// including a second report for the same bench.
std::string MakeBaselineJson(const std::vector<JsonValue>& reports, std::string* error);

// Checks fresh bench reports, one per bench, against the baseline. Appends a
// violation for every baseline value the reports do not reproduce exactly and
// for every baseline bench without a report; returns false only on structural
// errors (baseline not version 2, unknown or duplicate bench, malformed
// documents) with *error set.
bool CheckBaseline(const JsonValue& baseline, const std::vector<JsonValue>& reports,
                   std::vector<BaselineViolation>* violations, std::string* error);

}  // namespace prof
}  // namespace minuet

#endif  // SRC_PROF_PROFILE_H_
