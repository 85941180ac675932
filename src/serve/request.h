// Request model and serving clock for the scheduler (src/serve).
//
// A Request names one inference call: when it arrives on the serving clock,
// which synthetic point cloud it carries (dataset + target size + seed fully
// determine the coordinates and features — see src/data/generators.h), what
// priority class it belongs to, and which batching-compatibility class it is
// in. Everything is a value; the scheduler materialises clouds lazily and
// memoises them, so traces stay cheap to generate, serialise and replay.
//
// The serving clock is integer nanoseconds. Integer differences telescope
// (a + (b - a) == b), so busy time, latencies and phase segments add up
// exactly. Microsecond doubles stay at the edges: config fields and
// Request::arrival_us are quantised once, by NsFromUs, as they enter the
// loop; reports and summaries leave it through NsToUs.
#ifndef SRC_SERVE_REQUEST_H_
#define SRC_SERVE_REQUEST_H_

#include <cmath>
#include <cstdint>
#include <string>

#include "src/data/generators.h"
#include "src/gpusim/device_config.h"
#include "src/serve/reqtrace.h"
#include "src/util/check.h"

namespace minuet {
namespace serve {

// How the admission queue orders dispatch candidates.
//   kFifo     — admission order.
//   kSjf      — shortest job first by target point count (ties: admission).
//   kPriority — priority class ascending (0 = most urgent), FIFO within.
enum class AdmissionPolicy { kFifo, kSjf, kPriority };

const char* AdmissionPolicyName(AdmissionPolicy policy);
bool ParseAdmissionPolicy(const std::string& name, AdmissionPolicy* out);

inline int64_t NsFromUs(double us) {
  MINUET_CHECK(std::isfinite(us));
  return std::llround(us * 1000.0);
}
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1000.0; }
// Simulated device time of `cycles` on the serving clock.
inline int64_t NsFromCycles(const DeviceConfig& config, double cycles) {
  return NsFromUs(config.CyclesToMillis(cycles) * 1000.0);
}

struct Request {
  int64_t id = 0;
  double arrival_us = 0.0;  // virtual serving time, never wall time
  int priority = 0;         // 0 = most urgent class
  // Batching-compatibility key: requests may share a batch only when equal.
  // Stands for "same network + precision" — one serving deployment per class.
  int batch_class = 0;
  DatasetKind dataset = DatasetKind::kRandom;
  int64_t points = 1000;    // target cloud size; the SJF key
  uint64_t cloud_seed = 1;  // with dataset+points, names the exact cloud
  int client = -1;          // closed-loop issuer; -1 in open-loop traces
};

// Outcome of one request after a scheduler run, on the serving clock; shed
// requests have no dispatch/completion.
struct RequestRecord {
  Request request;
  bool shed = false;
  bool warm = false;         // served from a cached ExecutionPlan
  int device = 0;            // fleet replica that served (or shed) the request
  int64_t batch_id = -1;
  int64_t arrival_ns = 0;    // NsFromUs(request.arrival_us)
  int64_t dispatch_ns = 0;
  int64_t completion_ns = 0;
  double service_cycles = 0.0;  // this request's own simulated device cycles
  // Causal phase decomposition of the end-to-end latency (integer-ns
  // segments, sum == e2e bit-exactly; all zero for shed requests). Recorded
  // by the fleet loop's ReqTraceRecorder at its own decision points.
  PhaseTrace trace;

  double QueueUs() const { return NsToUs(dispatch_ns - arrival_ns); }
  double ServiceUs() const { return NsToUs(completion_ns - dispatch_ns); }
  double LatencyUs() const { return NsToUs(completion_ns - arrival_ns); }
};

// One dispatched batch: which compatibility class, how many requests, and
// what it cost on the device with the stream-pool overlap applied.
struct BatchRecord {
  int64_t id = 0;
  int batch_class = 0;
  int device = 0;  // fleet replica the batch ran on
  int64_t size = 0;
  int64_t dispatch_ns = 0;
  int64_t completion_ns = 0;
  double service_cycles = 0.0;  // overlapped cost, what the server is busy for
  double serial_cycles = 0.0;   // sum of per-request cycles (no overlap)

  // How much the stream pool compressed the batch: 1.0 for singletons,
  // approaching min(size, streams) for balanced batches.
  double Overlap() const {
    return service_cycles <= 0.0 ? 1.0 : serial_cycles / service_cycles;
  }
};

}  // namespace serve
}  // namespace minuet

#endif  // SRC_SERVE_REQUEST_H_
