#include "src/serve/arrival.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/util/check.h"
#include "src/util/json_writer.h"

namespace minuet {
namespace serve {

namespace {

// Exponential with the given mean; the rng state advances exactly once.
double Exponential(Pcg32& rng, double mean) {
  return -std::log(1.0 - rng.NextDouble()) * mean;
}

}  // namespace

const char* AdmissionPolicyName(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kFifo:
      return "fifo";
    case AdmissionPolicy::kSjf:
      return "sjf";
    case AdmissionPolicy::kPriority:
      return "priority";
  }
  return "?";
}

bool ParseAdmissionPolicy(const std::string& name, AdmissionPolicy* out) {
  for (AdmissionPolicy policy :
       {AdmissionPolicy::kFifo, AdmissionPolicy::kSjf, AdmissionPolicy::kPriority}) {
    if (name == AdmissionPolicyName(policy)) {
      *out = policy;
      return true;
    }
  }
  return false;
}

const char* ArrivalProcessName(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kMmpp:
      return "mmpp";
    case ArrivalProcess::kClosedLoop:
      return "closed";
  }
  return "?";
}

bool ParseArrivalProcess(const std::string& name, ArrivalProcess* out) {
  for (ArrivalProcess process :
       {ArrivalProcess::kPoisson, ArrivalProcess::kMmpp, ArrivalProcess::kClosedLoop}) {
    if (name == ArrivalProcessName(process)) {
      *out = process;
      return true;
    }
  }
  return false;
}

std::vector<RequestShape> DefaultShapes() {
  // Small / medium / large kRandom clouds. Distinct seeds keep the clouds
  // distinct in the plan cache; the skew towards small requests mirrors real
  // request-size distributions (most frames are cheap, a tail is not).
  std::vector<RequestShape> shapes(3);
  shapes[0] = {DatasetKind::kRandom, 800, 11, 0, 0, 0.5};
  shapes[1] = {DatasetKind::kRandom, 1600, 13, 0, 0, 0.3};
  shapes[2] = {DatasetKind::kRandom, 3200, 17, 0, 0, 0.2};
  return shapes;
}

RequestSampler::RequestSampler() : shapes_(DefaultShapes()) {
  double total = 0.0;
  for (const RequestShape& shape : shapes_) {
    total += shape.weight;
  }
  cumulative_.reserve(shapes_.size());
  double running = 0.0;
  for (const RequestShape& shape : shapes_) {
    running += shape.weight / total;
    cumulative_.push_back(running);
  }
  cumulative_.back() = 1.0;  // absorb rounding so the last shape is reachable
}

Request RequestSampler::Sample(int64_t id, double arrival_us, Pcg32& rng) const {
  const double u = rng.NextDouble();
  size_t pick = 0;
  while (pick + 1 < cumulative_.size() && u >= cumulative_[pick]) {
    ++pick;
  }
  const RequestShape& shape = shapes_[pick];
  Request request;
  request.id = id;
  request.arrival_us = arrival_us;
  request.priority = shape.priority;
  request.batch_class = shape.batch_class;
  request.dataset = shape.dataset;
  request.points = shape.points;
  request.cloud_seed = shape.cloud_seed;
  return request;
}

std::vector<Request> GenerateArrivalTrace(const TraceConfig& config) {
  MINUET_CHECK(config.process != ArrivalProcess::kClosedLoop)
      << "closed-loop arrivals depend on completions; pass the TraceConfig to "
         "FleetScheduler::Run instead";
  MINUET_CHECK_GT(config.rate_rps, 0.0);
  MINUET_CHECK_GE(config.num_requests, 0);

  RequestSampler sampler;
  // Independent streams for arrival timing and body sampling, so adding a
  // shape never perturbs the arrival pattern.
  Pcg32 timing_rng(config.seed, /*stream=*/0x5e71fe);
  Pcg32 body_rng(config.seed, /*stream=*/0x5e72b0);

  const double base_mean_us = 1e6 / config.rate_rps;
  std::vector<Request> trace;
  trace.reserve(static_cast<size_t>(config.num_requests));

  double now_us = 0.0;
  if (config.process == ArrivalProcess::kPoisson) {
    for (int64_t i = 0; i < config.num_requests; ++i) {
      now_us += Exponential(timing_rng, base_mean_us);
      trace.push_back(sampler.Sample(i, now_us, body_rng));
    }
    return trace;
  }

  // MMPP(2): alternate base/burst states with exponential dwells; within a
  // state, arrivals are Poisson at that state's rate. An arrival that would
  // land past the state boundary is re-drawn from the boundary (memorylessness
  // makes restarting the exponential exact, not an approximation).
  MINUET_CHECK_GT(config.burst_multiplier, 0.0);
  MINUET_CHECK_GT(config.base_dwell_us, 0.0);
  MINUET_CHECK_GT(config.burst_dwell_us, 0.0);
  bool burst = false;
  double state_end_us = Exponential(timing_rng, config.base_dwell_us);
  for (int64_t i = 0; i < config.num_requests; ++i) {
    for (;;) {
      const double mean = burst ? base_mean_us / config.burst_multiplier : base_mean_us;
      const double candidate = now_us + Exponential(timing_rng, mean);
      if (candidate <= state_end_us) {
        now_us = candidate;
        break;
      }
      now_us = state_end_us;
      burst = !burst;
      state_end_us =
          now_us + Exponential(timing_rng, burst ? config.burst_dwell_us : config.base_dwell_us);
    }
    trace.push_back(sampler.Sample(i, now_us, body_rng));
  }
  return trace;
}

std::string ArrivalTraceJson(const std::vector<Request>& trace) {
  JsonWriter w;
  w.BeginObject();
  w.KV("arrival_trace", 1);
  w.Key("requests");
  w.BeginArray();
  for (const Request& request : trace) {
    w.BeginObject();
    w.KV("id", request.id);
    w.KV("arrival_us", request.arrival_us);
    w.KV("priority", request.priority);
    w.KV("batch_class", request.batch_class);
    w.KV("dataset", DatasetName(request.dataset));
    w.KV("points", request.points);
    w.KV("cloud_seed", request.cloud_seed);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

bool WriteArrivalTrace(const std::vector<Request>& trace, const std::string& path) {
  return WriteTextFile(path, ArrivalTraceJson(trace));
}

bool ParseArrivalTrace(const JsonValue& doc, std::vector<Request>* out, std::string* error) {
  const JsonValue* version = doc.Find("arrival_trace");
  if (version == nullptr) {
    *error = "not an arrival trace (no arrival_trace version key)";
    return false;
  }
  const JsonValue* requests = doc.Find("requests");
  if (requests == nullptr || !requests->is_array()) {
    *error = "arrival trace has no requests array";
    return false;
  }
  out->clear();
  out->reserve(requests->size());
  for (size_t i = 0; i < requests->size(); ++i) {
    const JsonValue& entry = requests->at(i);
    if (!entry.is_object()) {
      *error = "arrival trace request " + std::to_string(i) + " is not an object";
      return false;
    }
    Request request;
    request.id = static_cast<int64_t>(
        entry.Find("id") != nullptr ? entry.Find("id")->DoubleOr(static_cast<double>(i))
                                    : static_cast<double>(i));
    const JsonValue* arrival = entry.Find("arrival_us");
    if (arrival == nullptr || !arrival->is_number()) {
      *error = "arrival trace request " + std::to_string(i) + " has no arrival_us";
      return false;
    }
    request.arrival_us = arrival->AsDouble();
    if (const JsonValue* v = entry.Find("priority")) {
      request.priority = static_cast<int>(v->DoubleOr(0.0));
    }
    if (const JsonValue* v = entry.Find("batch_class")) {
      request.batch_class = static_cast<int>(v->DoubleOr(0.0));
    }
    if (const JsonValue* v = entry.Find("dataset"); v != nullptr && v->is_string()) {
      if (!ParseDatasetName(v->AsString(), &request.dataset)) {
        *error = "arrival trace request " + std::to_string(i) + " has unknown dataset \"" +
                 v->AsString() + "\"";
        return false;
      }
    }
    if (const JsonValue* v = entry.Find("points")) {
      request.points = static_cast<int64_t>(v->DoubleOr(1000.0));
    }
    if (const JsonValue* v = entry.Find("cloud_seed")) {
      request.cloud_seed = static_cast<uint64_t>(v->DoubleOr(1.0));
    }
    out->push_back(request);
  }
  // The scheduler requires time order; tolerate unsorted files.
  std::stable_sort(out->begin(), out->end(), [](const Request& a, const Request& b) {
    return a.arrival_us != b.arrival_us ? a.arrival_us < b.arrival_us : a.id < b.id;
  });
  return true;
}

bool ReadArrivalTraceFile(const std::string& path, std::vector<Request>* out,
                          std::string* error) {
  JsonValue doc;
  if (!ReadJsonFile(path, &doc, error)) {
    return false;
  }
  return ParseArrivalTrace(doc, out, error);
}

}  // namespace serve
}  // namespace minuet
