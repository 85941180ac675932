// JSON serving report — the artifact minuet_serve writes and minuet_prof
// reads. Schema (version key "serve_report"):
//
//   {"serve_report": 1,
//    "context":  {"device":.., "network":.., "engine":.., "precision":..},
//    "arrival":  {"process":.., "rate_rps":.., "num_requests":.., "seed":..},
//    "config":   {"policy":.., "queue_capacity":.., "max_batch_size":..,
//                 "max_queue_delay_us":.., "slo_us":..},
//    "summary":  {<every ServeSummary field>},
//    "requests": [{"id":..,"arrival_us":..,"device":..,"shed":..,"warm":..,
//                  "batch":..,"queue_us":..,"service_us":..,"latency_us":..,
//                  "points":..,
//                  "e2e_ns":..,"server_wait_ns":..,"batch_delay_ns":..,
//                  "map_ns":..,"map_delta_ns":..,
//                  "gather_ns":..,"gemm_ns":..,"scatter_ns":..,
//                  "exec_other_ns":..,"stream_wait_ns":..}, ...],
//    "batches":  [{"id":..,"class":..,"device":..,"size":..,"dispatch_us":..,
//                  "service_us":..,"overlap":..}, ...],
//    "blame":    {"completed":..,"e2e_total_ns":..,
//                 "<phase>_ns":.., "<phase>_share":.., ...},
//    "alerts":   {"count":.., "firing":.., "events":[..]},
//    "fleet":    {"routing":.., "num_devices":.., "plan_hit_asymmetry":..,
//                 "devices":[{"device":..,"name":..,"plan_hits":..,
//                             "summary":{..}}, ...],
//                 "tiers":[{"priority":..,"offered":..,...}, ...]},
//    "device_metrics": {<MetricsRegistry snapshot>}}        (optional)
//
// Every deployment is a fleet — a single device is a fleet of one — so every
// report carries the "fleet" section. Everything is simulated/serving-clock
// time — no host wall-clock leaks in, so two runs of the same config produce
// byte-identical reports.
#ifndef SRC_SERVE_REPORT_H_
#define SRC_SERVE_REPORT_H_

#include <string>

#include "src/serve/arrival.h"
#include "src/serve/fleet.h"
#include "src/serve/stream.h"

namespace minuet {

namespace trace {
class MetricsRegistry;
}  // namespace trace

namespace serve {

// Identity of the deployment the report describes. `device` is the
// DeviceConfig name for a single replica and names the pool (e.g.
// "3090,a100") for more; per-replica device names live in the fleet section.
struct ServeReportContext {
  std::string device;     // DeviceConfig name
  std::string network;    // Network name
  std::string engine;     // EngineKindName
  std::string precision;  // "fp32" | "fp16"
};

// The serving report: context, arrival, config, the aggregate summary, the
// request/batch records, blame, alerts, and the "fleet" section (routing
// policy, per-device summaries and cache stats, per-priority tiers, hit
// asymmetry). A single device is a fleet of one. `registry` may be null (no
// device_metrics section); when present, its snapshot is embedded verbatim
// so one file carries both the serving view and the per-kernel device view.
std::string FleetReportJson(const FleetResult& result, const TraceConfig& arrival,
                            const ServeReportContext& context,
                            const trace::MetricsRegistry* registry);

// The video-rate flavour (version key "stream_report"): the shared
// summary/requests/batches/blame sections plus the stream envelope — the
// sequence identity, the frame clock, per-stream frame/drop/incremental
// counters, and the frames-dropped SLO verdict.
std::string StreamReportJson(const StreamServeResult& result,
                             const ServeReportContext& context,
                             const trace::MetricsRegistry* registry);

}  // namespace serve
}  // namespace minuet

#endif  // SRC_SERVE_REPORT_H_
