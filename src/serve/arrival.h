// Deterministic arrival-trace generation for the serving scheduler.
//
// Three client models, all seeded through src/util/rng (no wall clock
// anywhere, so a trace is a pure function of its config):
//
//   kPoisson    — open loop, exponential inter-arrivals at rate_rps.
//   kMmpp       — open loop, 2-state Markov-modulated Poisson process: a
//                 base state emitting at rate_rps and a burst state at
//                 rate_rps * burst_multiplier, with exponential dwell times.
//                 The standard model for bursty traffic (flash crowds, the
//                 frame clusters an AV perception pipeline sees in traffic).
//   kClosedLoop — num_clients clients, each keeping one request outstanding
//                 and re-issuing an exponential think time after completion.
//                 Closed loops cannot be pre-generated (arrivals depend on
//                 completions), so the scheduler drives them itself from the
//                 same TraceConfig; GenerateArrivalTrace rejects this mode.
//
// Request bodies (cloud size, dataset, seed, priority, batch class) are drawn
// from a weighted shape population, so one trace mixes small and large
// requests — the contrast SJF scheduling and batching policies care about.
#ifndef SRC_SERVE_ARRIVAL_H_
#define SRC_SERVE_ARRIVAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/serve/request.h"
#include "src/util/json_reader.h"
#include "src/util/rng.h"

namespace minuet {
namespace serve {

enum class ArrivalProcess { kPoisson, kMmpp, kClosedLoop };

const char* ArrivalProcessName(ArrivalProcess process);
bool ParseArrivalProcess(const std::string& name, ArrivalProcess* out);

// One entry of the request population.
struct RequestShape {
  DatasetKind dataset = DatasetKind::kRandom;
  int64_t points = 1000;
  uint64_t cloud_seed = 1;
  int priority = 0;
  int batch_class = 0;
  double weight = 1.0;
};

struct TraceConfig {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  double rate_rps = 1000.0;    // open-loop mean arrival rate (base state)
  int64_t num_requests = 100;  // total requests (all modes)
  uint64_t seed = 1;
  // MMPP(2) modulation.
  double burst_multiplier = 4.0;
  double base_dwell_us = 40000.0;   // mean dwell in the base state
  double burst_dwell_us = 10000.0;  // mean dwell in the burst state
  // Closed loop.
  int num_clients = 4;
  double think_time_us = 1000.0;  // mean think time per client
};

// The request population: a small/medium/large mix of kRandom clouds, one
// priority class, one batch class.
std::vector<RequestShape> DefaultShapes();

// Weighted sampling from DefaultShapes(), shared by the open-loop generator
// and the scheduler's closed-loop clients.
class RequestSampler {
 public:
  RequestSampler();

  // Fills everything but arrival/client from the shape population.
  Request Sample(int64_t id, double arrival_us, Pcg32& rng) const;

 private:
  std::vector<RequestShape> shapes_;
  std::vector<double> cumulative_;  // normalised cumulative weights
};

// Generates the full arrival trace for the open-loop processes, sorted by
// (arrival_us, id). CHECK-fails on kClosedLoop (see file comment).
std::vector<Request> GenerateArrivalTrace(const TraceConfig& config);

// JSON round trip, schema:
//   {"arrival_trace": 1,
//    "requests": [{"id":..,"arrival_us":..,"priority":..,"batch_class":..,
//                  "dataset":"random","points":..,"cloud_seed":..}, ...]}
std::string ArrivalTraceJson(const std::vector<Request>& trace);
bool WriteArrivalTrace(const std::vector<Request>& trace, const std::string& path);
bool ParseArrivalTrace(const JsonValue& doc, std::vector<Request>* out, std::string* error);
bool ReadArrivalTraceFile(const std::string& path, std::vector<Request>* out,
                          std::string* error);

}  // namespace serve
}  // namespace minuet

#endif  // SRC_SERVE_ARRIVAL_H_
