// minuet_perfbench — the repository benchmark.
//
// One process runs one named workload for a fixed host-time budget, checks
// the program's outputs, prints every metric by name with its unit, and ends
// with one JSON result line:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//   minuet_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--smoke]
//
// Two clocks, always reported apart. "sim" metrics are modelled GPU time: a
// function of the program and its generated inputs (plus, until the cache
// simulator stops keying on host addresses, a little allocator noise). "host"
// metrics are what the simulator costs to run on the CPU it runs on.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
// the same loop twice, untraced then with a trace::Tracer installed, and
// reports the per-layer ledger: simulated splits from the untraced half, host
// self time per layer from the traced half, and the tracing overhead between
// the two. perfbench/README.md lists the workloads, every metric, and which
// end-to-end metric each per-layer metric should move.
//
// The benchmark only drives public APIs (generators, Engine, RunSession via
// the schedulers, FleetScheduler, StreamScheduler, Device counters, Tracer);
// nothing here is compiled into the library.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/data/generators.h"
#include "src/data/sequence.h"
#include "src/engine/engine.h"
#include "src/engine/network.h"
#include "src/gpusim/device_config.h"
#include "src/serve/arrival.h"
#include "src/serve/fleet.h"
#include "src/serve/stream.h"
#include "src/trace/trace.h"
#include "src/util/rng.h"
#include "src/util/summary.h"

namespace minuet {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Simulated device time of the items a step completed, in ms summed over
// items. `other` is metadata + elementwise: the serving path's PhaseTrace
// does not split the two, so every workload reports them together and the
// driver separates them with the device's gmas/metadata kernel counters.
struct SimSplit {
  double total = 0.0;  // each item's own execution time
  double map = 0.0;    // map build + query (input sort and coordinate dedup included)
  double map_delta = 0.0;
  double gather_scatter = 0.0;
  double gemm = 0.0;  // with the stream-pool overlap
  double other = 0.0;

  SimSplit& operator+=(const SimSplit& o) {
    total += o.total;
    map += o.map;
    map_delta += o.map_delta;
    gather_scatter += o.gather_scatter;
    gemm += o.gemm;
    other += o.other;
    return *this;
  }
};

// What one timed iteration did. Clock fields are serving-clock microseconds
// for the schedulers, and the simulated device clock for closed-loop frames
// (one frame in flight, so each frame is due when the previous completes).
struct Step {
  double host_s = 0.0;  // host time of the public call(s) alone
  int64_t offered = 0;
  int64_t completed = 0;
  int64_t failed = 0;  // shed + dropped + items failing an output check
  int64_t good = 0;    // completed within the SLO
  int64_t incremental = 0;
  int64_t batches = 0;
  double clock_us = 0.0;
  double busy_us = 0.0;     // summed over replicas
  double replica_us = 0.0;  // clock_us x replicas
  uint64_t plan_hits = 0, plan_lookups = 0;
  uint64_t pool_reuses = 0, pool_acquires = 0;
  SimSplit sim;
  std::vector<double> latency_us;  // completed items, from their due time
  std::vector<double> queue_us;
};

struct SetupTimes {
  double gen_s = 0.0;
  double autotune_s = 0.0;
};

// A workload: set up once per repetition, then Run() cycles over
// num_inputs() distinct inputs. Run() must be deterministic in its input
// index, so a first pass over all inputs is a pure function of the seed.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual SetupTimes Setup(uint64_t seed) = 0;
  virtual int64_t num_inputs() const = 0;
  virtual Step Run(int64_t input) = 0;
  // Output checks that need a reference computed outside the timed loop;
  // returns the number of items that failed.
  virtual int64_t Verify() { return 0; }
  virtual std::vector<Device*> devices() = 0;
};

void AddSession(const SessionStats& before, const SessionStats& after, Step* step) {
  const uint64_t hits = after.plan.hits - before.plan.hits;
  const uint64_t misses = after.plan.misses - before.plan.misses;
  const uint64_t reuses = after.pool.reuses - before.pool.reuses;
  const uint64_t allocations = after.pool.allocations - before.pool.allocations;
  step->plan_hits += hits;
  step->plan_lookups += hits + misses;
  step->pool_reuses += reuses;
  step->pool_acquires += reuses + allocations;
}

// Serving-path records -> Step (latency, SLO, and the PhaseTrace split).
void AddRecords(const std::vector<serve::RequestRecord>& records,
                const std::vector<serve::BatchRecord>& batches, double slo_us, Step* step) {
  for (const serve::RequestRecord& r : records) {
    ++step->offered;
    if (r.shed) {
      continue;
    }
    ++step->completed;
    step->latency_us.push_back(r.LatencyUs());
    step->queue_us.push_back(r.QueueUs());
    step->good += r.LatencyUs() <= slo_us ? 1 : 0;
    const serve::PhaseTrace& t = r.trace;
    step->sim.total += 1e-6 * static_cast<double>(t.exec_ns);
    step->sim.map += 1e-6 * static_cast<double>(t.map_ns);
    step->sim.map_delta += 1e-6 * static_cast<double>(t.map_delta_ns);
    step->sim.gather_scatter += 1e-6 * static_cast<double>(t.gather_ns + t.scatter_ns);
    step->sim.gemm += 1e-6 * static_cast<double>(t.gemm_ns);
    step->sim.other += 1e-6 * static_cast<double>(t.exec_other_ns);
  }
  step->batches += static_cast<int64_t>(batches.size());
}

// ---------------------------------------------------------------------------
// Closed-loop frames straight through Engine::Run (lidar-cold,
// indoor-functional).

struct FrameConfig {
  Network (*network)();
  DatasetKind dataset;
  DeviceConfig (*device)();
  bool functional;
  int64_t points;
  int64_t frames;       // distinct inputs
  int64_t tune_points;  // Autotune sample size
  // UNet convention: the output lives on the input voxel set.
  bool check_coords;
  // Output features must match a kMinkowski run of the same frame (needs
  // functional mode).
  bool check_reference;
};

class FrameWorkload : public Workload {
 public:
  explicit FrameWorkload(const FrameConfig& config) : config_(config) {}

  SetupTimes Setup(uint64_t seed) override {
    SetupTimes times;
    network_ = config_.network();
    const Clock::time_point gen_start = Clock::now();
    for (int64_t i = 0; i < config_.frames; ++i) {
      GeneratorConfig gen;
      gen.target_points = config_.points;
      gen.channels = network_.in_channels;
      gen.seed = seed * 1000 + static_cast<uint64_t>(i);
      clouds_.push_back(GenerateCloud(config_.dataset, gen));
    }
    GeneratorConfig tune;
    tune.target_points = config_.tune_points;
    tune.channels = network_.in_channels;
    tune.seed = seed * 1000 + 999;
    PointCloud sample = GenerateCloud(config_.dataset, tune);
    times.gen_s = SecondsSince(gen_start);

    EngineConfig engine_config;
    engine_config.functional = config_.functional;
    engine_ = std::make_unique<Engine>(engine_config, config_.device());
    engine_->Prepare(network_, /*seed=*/5);
    times.autotune_s = engine_->Autotune(sample) / 1e3;
    outputs_.assign(clouds_.size(), FeatureMatrix());
    return times;
  }

  int64_t num_inputs() const override { return config_.frames; }

  Step Run(int64_t input) override {
    const PointCloud& cloud = clouds_[static_cast<size_t>(input)];
    Step step;
    RunResult result;
    {
      const Clock::time_point start = Clock::now();
      trace::Span span("bench/engine.run", "bench");
      result = engine_->Run(cloud);
      span.Close();
      step.host_s = SecondsSince(start);
    }
    const DeviceConfig& dc = engine_->device().config();
    const StepBreakdown& b = result.total;
    const double ms = dc.CyclesToMillis(b.TotalCycles());
    step.offered = 1;
    step.completed = 1;
    step.good = 1;
    step.batches = 1;
    step.clock_us = ms * 1e3;
    step.busy_us = step.clock_us;
    step.replica_us = step.clock_us;
    step.latency_us.push_back(step.clock_us);
    step.queue_us.push_back(0.0);
    step.sim.total = ms;
    step.sim.map = dc.CyclesToMillis(b.MapCycles());
    step.sim.map_delta = dc.CyclesToMillis(b.map_delta);
    step.sim.gather_scatter = dc.CyclesToMillis(b.gather + b.scatter);
    step.sim.gemm = dc.CyclesToMillis(b.gemm);
    step.sim.other = dc.CyclesToMillis(b.metadata + b.elementwise);
    if (config_.check_coords) {
      std::vector<Coord3> got = result.coords;
      std::vector<Coord3> want = cloud.coords;
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      step.failed += got == want ? 0 : 1;
    }
    if (config_.check_reference) {
      outputs_[static_cast<size_t>(input)] = std::move(result.features);
    }
    return step;
  }

  int64_t Verify() override {
    if (!config_.check_reference) {
      return 0;
    }
    constexpr float kTolerance = 5e-3f;  // full_network_test's engine tolerance
    EngineConfig reference_config;
    reference_config.kind = EngineKind::kMinkowski;
    reference_config.functional = true;
    Engine reference(reference_config, config_.device());
    reference.Prepare(network_, /*seed=*/5);
    int64_t failed = 0;
    for (size_t i = 0; i < clouds_.size(); ++i) {
      const FeatureMatrix want = reference.Run(clouds_[i]).features;
      const FeatureMatrix& got = outputs_[i];
      bool ok = got.rows() == want.rows() && got.cols() == want.cols() && got.rows() > 0;
      for (int64_t k = 0; ok && k < got.rows() * got.cols(); ++k) {
        ok = std::fabs(got.data()[k] - want.data()[k]) < kTolerance;
      }
      failed += ok ? 0 : 1;
    }
    return failed;
  }

  std::vector<Device*> devices() override { return {&engine_->device()}; }

 private:
  FrameConfig config_;
  Network network_;
  std::vector<PointCloud> clouds_;
  std::unique_ptr<Engine> engine_;
  std::vector<FeatureMatrix> outputs_;  // first-pass outputs awaiting Verify()
};

// ---------------------------------------------------------------------------
// Serving workloads share one heterogeneous pool: TinyUNet, timing-only, on
// an RTX 3090 + A100, with deterministic addressing as the serving path
// expects.

class PoolWorkload : public Workload {
 public:
  std::vector<Device*> devices() override {
    std::vector<Device*> out;
    for (auto& engine : engines_) {
      out.push_back(&engine->device());
    }
    return out;
  }

 protected:
  void BuildPool() {
    for (DeviceConfig device : {MakeRtx3090(), MakeA100()}) {
      device.deterministic_addressing = true;
      EngineConfig config;
      config.functional = false;
      engines_.push_back(std::make_unique<Engine>(config, device));
      engines_.back()->Prepare(MakeTinyUNet(4), /*seed=*/1);
      raw_.push_back(engines_.back().get());
    }
  }

  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<Engine*> raw_;
};

// Open-loop bursty requests over a warmed fleet (fleet-warm).
struct FleetLoad {
  int64_t traces;  // distinct inputs, one arrival trace each
  int64_t requests_per_trace;
  double rate_rps;  // MMPP base rate; bursts run at 4x
  double max_queue_delay_us;
  double slo_us;
};

class FleetWorkload : public PoolWorkload {
 public:
  explicit FleetWorkload(const FleetLoad& load) : load_(load) {}

  SetupTimes Setup(uint64_t seed) override {
    SetupTimes times;
    BuildPool();
    const Clock::time_point gen_start = Clock::now();
    for (int64_t i = 0; i < load_.traces; ++i) {
      serve::TraceConfig tc;
      tc.process = serve::ArrivalProcess::kMmpp;
      tc.rate_rps = load_.rate_rps;
      tc.num_requests = load_.requests_per_trace;
      tc.seed = seed * 1000 + static_cast<uint64_t>(i);
      // Several burst cycles per trace, so each trace sees bursts.
      tc.base_dwell_us = 2000.0;
      tc.burst_dwell_us = 500.0;
      std::vector<serve::Request> trace = serve::GenerateArrivalTrace(tc);
      // Stretch the trace to the process's mean rate exactly: the bursts
      // keep their shape, and how many of them a short trace happens to
      // catch no longer moves the offered load from seed to seed.
      const double mean_rps = tc.rate_rps * (tc.base_dwell_us + tc.burst_multiplier *
                                             tc.burst_dwell_us) /
                              (tc.base_dwell_us + tc.burst_dwell_us);
      const double scale = static_cast<double>(trace.size()) * 1e6 / mean_rps /
                           trace.back().arrival_us;
      // Exact mix: every trace carries the default small/medium/large shares
      // in a seeded order, so a seed's host cost does not swing with how
      // many large requests a short trace happened to draw.
      const std::vector<serve::RequestShape> shapes = serve::DefaultShapes();
      std::vector<size_t> mix;
      for (size_t k = 0; k < shapes.size(); ++k) {
        mix.insert(mix.end(), std::lround(shapes[k].weight * trace.size()), k);
      }
      mix.resize(trace.size(), mix.back());
      Pcg32 rng(tc.seed);
      for (size_t j = mix.size() - 1; j > 0; --j) {
        std::swap(mix[j], mix[rng.NextBounded(static_cast<uint32_t>(j + 1))]);
      }
      for (size_t j = 0; j < trace.size(); ++j) {
        const serve::RequestShape& shape = shapes[mix[j]];
        serve::Request& r = trace[j];
        r.arrival_us *= scale;
        r.dataset = shape.dataset;
        r.points = shape.points;
        r.cloud_seed = shape.cloud_seed;
        r.priority = shape.priority;
        r.batch_class = shape.batch_class;
      }
      traces_.push_back(std::move(trace));
    }
    times.gen_s = SecondsSince(gen_start);

    serve::FleetConfig config;
    config.routing = serve::RoutingPolicy::kLeastLoaded;
    config.scheduler.queue_capacity = 64;
    config.scheduler.max_batch_size = 4;
    config.scheduler.max_queue_delay_us = load_.max_queue_delay_us;
    config.scheduler.slo_us = load_.slo_us;
    fleet_ = std::make_unique<serve::FleetScheduler>(raw_, config);
    // Pre-warm: enough requests that every replica has planned every shape,
    // so measured runs are plan-cache replays. Not a measured input, so its
    // seed is fixed and set-up costs the same for every workload seed.
    serve::TraceConfig warm;
    warm.process = serve::ArrivalProcess::kPoisson;
    warm.rate_rps = load_.rate_rps;
    warm.num_requests = 48;
    warm.seed = 1;
    fleet_->Run(warm);
    return times;
  }

  int64_t num_inputs() const override { return load_.traces; }

  Step Run(int64_t input) override {
    std::vector<SessionStats> before;
    for (size_t d = 0; d < fleet_->num_replicas(); ++d) {
      before.push_back(fleet_->replica(d).session().stats());
    }
    Step step;
    serve::FleetResult result;
    {
      const Clock::time_point start = Clock::now();
      trace::Span span("bench/fleet.run", "bench");
      result = fleet_->Run(traces_[static_cast<size_t>(input)]);
      span.Close();
      step.host_s = SecondsSince(start);
    }
    for (size_t d = 0; d < fleet_->num_replicas(); ++d) {
      AddSession(before[d], fleet_->replica(d).session().stats(), &step);
    }
    AddRecords(result.requests, result.batches, load_.slo_us, &step);
    const serve::ServeSummary& s = result.summary.fleet;
    step.failed += s.shed;
    step.failed += s.completed + s.shed == s.offered ? 0 : s.offered;
    step.clock_us = s.duration_us;
    step.busy_us = s.server_busy_us;
    step.replica_us = s.duration_us * static_cast<double>(fleet_->num_replicas());
    return step;
  }

 private:
  FleetLoad load_;
  std::vector<std::vector<serve::Request>> traces_;
  std::unique_ptr<serve::FleetScheduler> fleet_;
};

// Closed-loop LiDAR streams on incremental maps (lidar-stream).
struct StreamLoad {
  int64_t sequences;  // distinct inputs
  int64_t points;
  int64_t frames;
  int64_t streams;
  double frame_period_us;
};

class StreamWorkload : public PoolWorkload {
 public:
  explicit StreamWorkload(const StreamLoad& load) : load_(load) {}

  SetupTimes Setup(uint64_t seed) override {
    SetupTimes times;
    BuildPool();
    const Clock::time_point gen_start = Clock::now();
    for (int64_t i = 0; i < load_.sequences; ++i) {
      SequenceConfig sc;
      sc.dataset = DatasetKind::kKitti;
      sc.base_points = load_.points;
      sc.channels = 4;
      sc.num_frames = load_.frames;
      sc.seed = seed * 1000 + static_cast<uint64_t>(i);
      sc.churn_rate = 0.05;
      sequences_.push_back(GenerateSequence(sc));
    }
    times.gen_s = SecondsSince(gen_start);
    return times;
  }

  int64_t num_inputs() const override { return load_.sequences; }

  Step Run(int64_t input) override {
    serve::StreamServeConfig config;
    config.num_streams = load_.streams;
    config.frame_period_us = load_.frame_period_us;
    config.frame_deadline_us = load_.frame_period_us;
    // A fresh scheduler per input: every stream starts a new chain and an
    // empty plan cache, so no frame is a plan replay.
    serve::StreamScheduler scheduler(raw_, config);
    Step step;
    serve::StreamServeResult result;
    {
      const Clock::time_point start = Clock::now();
      trace::Span span("bench/stream.run", "bench");
      result = scheduler.Run(sequences_[static_cast<size_t>(input)]);
      span.Close();
      step.host_s = SecondsSince(start);
    }
    for (size_t s = 0; s < scheduler.num_streams(); ++s) {
      AddSession(SessionStats{}, scheduler.stream_session(s).session().stats(), &step);
    }
    AddRecords(result.requests, result.batches, config.frame_deadline_us, &step);
    const serve::StreamServeSummary& s = result.summary;
    step.incremental = s.frames_incremental;
    step.failed += s.frames_dropped;
    const bool accounted = s.frames_completed + s.frames_dropped == s.frames_offered &&
                           s.frames_offered == step.offered;
    step.failed += accounted && s.frames_incremental > 0 ? 0 : step.offered;
    step.clock_us = s.serve.duration_us;
    step.busy_us = s.serve.server_busy_us;
    step.replica_us = s.serve.duration_us * static_cast<double>(raw_.size());
    return step;
  }

 private:
  StreamLoad load_;
  std::vector<Sequence> sequences_;
};

// ---------------------------------------------------------------------------
// Workload table. Sizes are fixed per workload; --smoke shrinks every one to
// a few hundred points so the benchmark's own smoke test runs in seconds.

std::unique_ptr<Workload> MakeWorkload(const std::string& name, bool smoke) {
  if (name == "lidar-cold") {
    FrameConfig c{[] { return MakeMinkUNet42(4); }, DatasetKind::kKitti, MakeRtx3090,
                  /*functional=*/false, /*points=*/8000, /*frames=*/4, /*tune_points=*/2000,
                  /*check_coords=*/true, /*check_reference=*/false};
    if (smoke) {
      c.points = 600;
      c.frames = 2;
      c.tune_points = 300;
    }
    return std::make_unique<FrameWorkload>(c);
  }
  if (name == "indoor-functional") {
    FrameConfig c{[] { return MakeSparseResNet21(4, 20); }, DatasetKind::kS3dis, MakeA100,
                  /*functional=*/true, /*points=*/4000, /*frames=*/4, /*tune_points=*/1000,
                  /*check_coords=*/false, /*check_reference=*/true};
    if (smoke) {
      c.points = 600;
      c.frames = 2;
      c.tune_points = 300;
    }
    return std::make_unique<FrameWorkload>(c);
  }
  if (name == "fleet-warm") {
    FleetLoad load{/*traces=*/6, /*requests_per_trace=*/60, /*rate_rps=*/4000.0,
                   /*max_queue_delay_us=*/20.0, /*slo_us=*/5000.0};
    if (smoke) {
      load.traces = 2;
      load.requests_per_trace = 8;
    }
    return std::make_unique<FleetWorkload>(load);
  }
  if (name == "lidar-stream") {
    StreamLoad load{/*sequences=*/5, /*points=*/1500, /*frames=*/5, /*streams=*/4,
                    /*frame_period_us=*/2500.0};
    if (smoke) {
      load.sequences = 2;
      load.points = 400;
      load.frames = 4;
    }
    return std::make_unique<StreamWorkload>(load);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Measurement.

struct DeviceSnapshot {
  KernelStats totals;
  std::map<std::string, KernelStats> kernels;
};

DeviceSnapshot Snapshot(const std::vector<Device*>& devices) {
  DeviceSnapshot snap;
  for (const Device* device : devices) {
    snap.totals += device->totals();
    for (const auto& [name, stats] : device->kernel_aggregates()) {
      snap.kernels[name] += stats;
    }
  }
  return snap;
}

// Kernel counters between two snapshots, summed over names with `prefix`.
KernelStats KernelDelta(const DeviceSnapshot& before, const DeviceSnapshot& after,
                        const std::string& prefix) {
  KernelStats out;
  for (const auto& [name, stats] : after.kernels) {
    if (name.rfind(prefix, 0) != 0) {
      continue;
    }
    out.millis += stats.millis;
    out.l2_hits += stats.l2_hits;
    out.l2_misses += stats.l2_misses;
    if (auto it = before.kernels.find(name); it != before.kernels.end()) {
      out.millis -= it->second.millis;
      out.l2_hits -= it->second.l2_hits;
      out.l2_misses -= it->second.l2_misses;
    }
  }
  return out;
}

// Host self time per layer, folded from traced spans. A span's self time is
// its duration minus its children's; it goes to the layer its name names.
struct HostLedger {
  double map_ms = 0.0, sort_ms = 0.0, gmas_ms = 0.0, engine_ms = 0.0, serve_ms = 0.0;
  double unattributed_ms = 0.0;
  double gemm_ms = 0.0;    // total (not self) time of gmas/gemm steps
  double kernel_ms = 0.0;  // self time of simulated kernel launches
  int64_t layer_spans = 0;
  double padding_sum = 0.0;  // Fig. 5 padding ratio summed over conv layer spans

  void Fold(const std::vector<trace::SpanRecord>& spans) {
    std::vector<double> child_us(spans.size(), 0.0);
    for (const trace::SpanRecord& s : spans) {
      if (s.parent >= 0) {
        child_us[static_cast<size_t>(s.parent)] += s.HostDurationUs();
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const trace::SpanRecord& s = spans[i];
      const double self_ms = (s.HostDurationUs() - child_us[i]) / 1e3;
      const std::string& n = s.name;
      if (n.rfind("map/", 0) == 0 || n == "engine/map") {
        map_ms += self_ms;
      } else if (n.rfind("sort/", 0) == 0) {
        sort_ms += self_ms;
      } else if (n.rfind("gmas/", 0) == 0) {
        gmas_ms += self_ms;
      } else if (n.rfind("engine/", 0) == 0) {
        engine_ms += self_ms;
      } else if (s.category == "serve" || n == "bench/fleet.run" || n == "bench/stream.run") {
        serve_ms += self_ms;
      } else {
        unattributed_ms += self_ms;
      }
      if (n == "gmas/gemm") {
        gemm_ms += s.HostDurationUs() / 1e3;
      }
      if (s.category == "kernel") {
        kernel_ms += self_ms;
      }
      if (s.category == "layer") {
        for (const auto& [key, value] : s.attrs) {
          if (key == "padding_ratio") {
            padding_sum += std::get<double>(value);
            ++layer_spans;
          }
        }
      }
    }
  }
};

// One timed loop over the workload's inputs: at least one full pass, then
// until `seconds` of host time have elapsed.
struct Phase {
  std::vector<double> rates;  // completed items per host second, per iteration
  int64_t completed = 0;      // over all iterations
  Step first;                 // the first pass, summed (the simulated ledger)
  DeviceSnapshot before, after;  // device counters around the first pass
  int64_t offered = 0, failed = 0;
};

void Accumulate(const Step& s, Step* acc) {
  acc->offered += s.offered;
  acc->completed += s.completed;
  acc->failed += s.failed;
  acc->good += s.good;
  acc->incremental += s.incremental;
  acc->batches += s.batches;
  acc->clock_us += s.clock_us;
  acc->busy_us += s.busy_us;
  acc->replica_us += s.replica_us;
  acc->plan_hits += s.plan_hits;
  acc->plan_lookups += s.plan_lookups;
  acc->pool_reuses += s.pool_reuses;
  acc->pool_acquires += s.pool_acquires;
  acc->sim += s.sim;
  acc->latency_us.insert(acc->latency_us.end(), s.latency_us.begin(), s.latency_us.end());
  acc->queue_us.insert(acc->queue_us.end(), s.queue_us.begin(), s.queue_us.end());
}

Phase RunPhase(Workload& workload, double seconds, HostLedger* ledger) {
  Phase phase;
  const int64_t inputs = workload.num_inputs();
  const Clock::time_point start = Clock::now();
  phase.before = Snapshot(workload.devices());
  for (int64_t i = 0; i < inputs || SecondsSince(start) < seconds; ++i) {
    std::unique_ptr<trace::Tracer> tracer;
    if (ledger != nullptr) {
      // One tracer per iteration keeps span memory bounded by one input.
      tracer = std::make_unique<trace::Tracer>();
      trace::Tracer::Install(tracer.get());
    }
    Step step = workload.Run(i % inputs);
    if (ledger != nullptr) {
      trace::Tracer::Install(nullptr);
      ledger->Fold(tracer->spans());
    }
    phase.rates.push_back(Ratio(static_cast<double>(step.completed), step.host_s));
    phase.completed += step.completed;
    phase.offered += step.offered;
    phase.failed += step.failed;
    if (i < inputs) {
      Accumulate(step, &phase.first);
      if (i == inputs - 1) {
        phase.after = Snapshot(workload.devices());
      }
    }
  }
  return phase;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options->smoke = true;
    } else if (arg == "--workload" && has_value) {
      options->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options->trace = std::string(argv[++i]) == "1";
    } else {
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0.0;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: minuet_perfbench --workload lidar-cold|indoor-functional|fleet-warm|"
                 "lidar-stream [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload, options.smoke);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  // Set-up is repeated and its median reported, so work moved into set-up
  // shows without one slow repetition deciding the figure; cheap set-ups
  // repeat for at least a second so their median is steady. The last
  // repetition's state is the one measured.
  const int min_setups = options.smoke ? 1 : 3;
  const double min_setup_s = options.smoke ? 0.0 : 1.0;
  std::vector<double> setup_s, gen_s, autotune_s;
  const Clock::time_point setups_start = Clock::now();
  for (int r = 0; r < min_setups || (SecondsSince(setups_start) < min_setup_s && r < 100);
       ++r) {
    workload = MakeWorkload(options.workload, options.smoke);
    const Clock::time_point start = Clock::now();
    const SetupTimes times = workload->Setup(options.seed);
    setup_s.push_back(SecondsSince(start));
    gen_s.push_back(times.gen_s);
    autotune_s.push_back(times.autotune_s);
  }

  // --trace 1 splits the budget between an untraced and a traced loop.
  HostLedger ledger;
  const double budget = options.trace ? options.seconds / 2.0 : options.seconds;
  Phase plain = RunPhase(*workload, budget, nullptr);
  Phase traced;
  if (options.trace) {
    traced = RunPhase(*workload, budget, &ledger);
  }
  const int64_t verify_failed = workload->Verify();

  // The simulated ledger, from the first (untraced) pass.
  const Step& f = plain.first;
  const double items = static_cast<double>(f.completed);
  const KernelStats metadata = KernelDelta(plain.before, plain.after, "gmas/metadata/");
  const double map_ms = f.sim.map;
  const double delta_ms = f.sim.map_delta;
  const double gmas_ms = f.sim.gather_scatter + f.sim.gemm + metadata.millis;
  const double elementwise_ms = f.sim.other - metadata.millis;
  // StepBreakdown identity: the four parts add up to the items' own time.
  const double parts = map_ms + delta_ms + gmas_ms + elementwise_ms;
  const bool identity_ok = std::fabs(parts - f.sim.total) <= 1e-6 * std::max(1.0, f.sim.total);
  if (!identity_ok) {
    std::fprintf(stderr, "simulated ledger: parts %.9g ms != total %.9g ms\n", parts,
                 f.sim.total);
  }

  const int64_t attempted = plain.offered + traced.offered;
  const int64_t failed = plain.failed + traced.failed + verify_failed;
  const bool correct = failed == 0 && identity_ok && items > 0;

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"host_items_per_s", Median(plain.rates), "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"sim_ms_mean", Ratio(f.sim.total, items), "ms"},
        {"latency_p50_us", Percentile(f.latency_us, 50.0), "us"},
        {"latency_p99_us", Percentile(f.latency_us, 99.0), "us"},
        {"goodput_rps", Ratio(static_cast<double>(f.good), f.clock_us * 1e-6), "1/s"},
    };
  } else {
    const KernelStats& t = plain.after.totals;
    const KernelStats& b = plain.before.totals;
    const double l2_accesses =
        static_cast<double>((t.l2_hits - b.l2_hits) + (t.l2_misses - b.l2_misses));
    const double traced_items = static_cast<double>(traced.completed);
    const KernelStats query = KernelDelta(plain.before, plain.after, "map/query/");
    const KernelStats sort = KernelDelta(plain.before, plain.after, "sort/");
    const auto host_per_item = [&](double ms) { return Ratio(ms, traced_items); };
    metrics = {
        {"data.gen_s", Median(gen_s), "s"},
        {"engine.autotune_s", Median(autotune_s), "s"},
        {"engine.launches", Ratio(static_cast<double>(t.num_launches - b.num_launches), items),
         "count/item"},
        {"engine.elementwise_sim_ms", Ratio(elementwise_ms, items), "ms/item"},
        {"engine.plan_hit_ratio",
         Ratio(static_cast<double>(f.plan_hits), static_cast<double>(f.plan_lookups)), "ratio"},
        {"engine.pool_reuse_ratio",
         Ratio(static_cast<double>(f.pool_reuses), static_cast<double>(f.pool_acquires)),
         "ratio"},
        {"engine.host_ms", host_per_item(ledger.engine_ms), "ms/item"},
        {"engine.host_unattributed_ms", host_per_item(ledger.unattributed_ms), "ms/item"},
        {"map.sim_ms", Ratio(map_ms, items), "ms/item"},
        {"map.query_l2_hit_ratio", query.L2HitRatio(), "ratio"},
        {"map.delta_sim_ms", Ratio(delta_ms, items), "ms/item"},
        {"map.incremental_ratio", Ratio(static_cast<double>(f.incremental), items), "ratio"},
        {"map.host_ms", host_per_item(ledger.map_ms), "ms/item"},
        {"gpusort.sim_ms", Ratio(sort.millis, items), "ms/item"},
        {"gpusort.host_ms", host_per_item(ledger.sort_ms), "ms/item"},
        {"gmas.sim_ms", Ratio(gmas_ms, items), "ms/item"},
        {"gmas.gemm_sim_ms", Ratio(f.sim.gemm, items), "ms/item"},
        {"gmas.gather_scatter_sim_ms", Ratio(f.sim.gather_scatter, items), "ms/item"},
        {"gmas.padding_ratio", Ratio(ledger.padding_sum, static_cast<double>(ledger.layer_spans)),
         "ratio"},
        {"gmas.host_ms", host_per_item(ledger.gmas_ms), "ms/item"},
        {"gmas.gemm_host_ms", host_per_item(ledger.gemm_ms), "ms/item"},
        {"gpusim.l2_accesses", Ratio(l2_accesses, items), "count/item"},
        {"gpusim.l2_hit_ratio",
         Ratio(static_cast<double>(t.l2_hits - b.l2_hits), l2_accesses), "ratio"},
        {"gpusim.dram_mb", Ratio(static_cast<double>(t.dram_bytes - b.dram_bytes) / 1e6, items),
         "MB/item"},
        {"gpusim.host_ns_per_access",
         Ratio(host_per_item(ledger.kernel_ms) * 1e6, Ratio(l2_accesses, items)), "ns"},
        {"serve.queue_p99_us", Percentile(f.queue_us, 99.0), "us"},
        {"serve.utilization", Ratio(f.busy_us, f.replica_us), "ratio"},
        {"serve.mean_batch_size", Ratio(items, static_cast<double>(f.batches)), "count"},
        {"serve.loop_host_ms", host_per_item(ledger.serve_ms), "ms/item"},
        {"trace.overhead_ratio", Ratio(Median(plain.rates), Median(traced.rates)) - 1.0, "ratio"},
    };
  }

  std::printf("workload %s  seed %llu  trace %d  items %lld (first pass %lld)\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, static_cast<long long>(plain.completed + traced.completed),
              static_cast<long long>(f.completed));
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-30s %16.6f (failed %lld of %lld attempted)\n", "failed_ratio",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<long long>(failed), static_cast<long long>(attempted));
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) { return minuet::Main(argc, argv); }
