// Sparse-convolution engines (Section 4): one class, three strategies.
//
//   kMinuet      — sorted-array Map step (segmented sorting + double-traversed
//                  binary search), autotuned Gather/Scatter tiles, sorted GEMM
//                  grouping, cross-layer sorted-coordinate reuse.
//   kTorchSparse — cuckoo-hash Map step, fixed tile size, map-order adaptive
//                  GEMM grouping, single Gather/Scatter for all offsets.
//   kMinkowski   — linear-probing-hash Map step, per-offset fused
//                  gather-GEMM-scatter dataflow (no padding, more launches,
//                  specialised for small channel counts).
//
// Feature toggles on kMinuet (EngineFeatures) reproduce the Figure 14
// ablation: disabling segmented sorting falls back to the hash map, disabling
// double traversal runs plain binary search over the whole source array,
// disabling autotuning uses the fixed tile, disabling sorted grouping uses
// map order.
#ifndef SRC_ENGINE_ENGINE_H_
#define SRC_ENGINE_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/point_cloud.h"
#include "src/engine/network.h"
#include "src/engine/plan_cache.h"
#include "src/gmas/executor.h"
#include "src/gpusim/device.h"
#include "src/map/map_builder.h"

namespace minuet {

enum class EngineKind { kMinuet, kTorchSparse, kMinkowski };

const char* EngineKindName(EngineKind kind);

// The command-line engine table: "minuet", "torchsparse", "minkowski".
// Returns false (and leaves `*out` alone) for any other name.
bool EngineKindForPreset(const std::string& preset, EngineKind* out);

struct EngineFeatures {
  bool segmented_sorting = true;  // SS
  bool double_traversal = true;   // DTBS
  bool autotuned_tiles = true;    // AT
  bool sorted_grouping = true;    // PG
};

// The CUDA-stream pool that ships with Minuet's GEMM grouping (s = 4,
// Section 5.2.2). The Map step's B and C and the grouping's padding threshold
// are the MinuetMapConfig and PlanGemmGroups defaults.
constexpr int kStreamPoolSize = 4;

struct EngineConfig {
  EngineKind kind = EngineKind::kMinuet;
  EngineFeatures features;
  // fp16 inference: halves device feature traffic, doubles the GEMM rate, and
  // rounds every layer's activations through binary16 (host math is float).
  Precision precision = Precision::kFp32;
  int fixed_tile = 4;  // prior works' fixed tile size (Section 6.5)
  // false: timing-only. Every kernel is charged as in functional mode, at the
  // same device addresses, but no payload is read or written: Prepare stores
  // and draws no weights, and every device activation and buffer is left
  // indeterminate (never filled, so its pages cost no host memory). Only the
  // results a caller receives are defined: their features are all zero.
  bool functional = true;
};

// Cycle breakdown across the two SC steps plus everything else.
struct StepBreakdown {
  double map_build = 0.0;   // hash build / coordinate sorting
  double map_query = 0.0;   // kernel-map queries
  // Incremental sorted-array maintenance on sequence runs (rebias + delta
  // merge instead of the input sort). Kept out of MapCycles() so consumers
  // that split "map" vs "map reuse" (PhaseTrace, minuet_prof explain) can
  // attribute the two separately without double counting.
  double map_delta = 0.0;
  double metadata = 0.0;
  double gather = 0.0;
  double gemm = 0.0;        // with stream-pool overlap
  double scatter = 0.0;
  double elementwise = 0.0;
  int64_t launches = 0;
  int64_t gemm_kernels = 0;
  // Excess (zero-fill) buffer rows, accumulated from GroupingPlan::
  // padded_rows() — i.e. already "padded minus actual", not the padded total.
  int64_t padded_rows = 0;
  int64_t actual_rows = 0;  // total kernel-map entries across layers

  double MapCycles() const { return map_build + map_query; }
  double GmasCycles() const { return metadata + gather + gemm + scatter; }
  double TotalCycles() const { return MapCycles() + map_delta + GmasCycles() + elementwise; }
  // Figure 5's convention: (padded - actual) / actual feature vectors. Same
  // metric as GroupingPlan::PaddingOverhead(), aggregated over the run.
  double PaddingOverhead() const {
    return actual_rows == 0 ? 0.0
                            : static_cast<double>(padded_rows) / static_cast<double>(actual_rows);
  }
  StepBreakdown& operator+=(const StepBreakdown& other);
};

struct LayerRecord {
  int conv_index = 0;  // 0-based conv layer number
  ConvParams params;
  int64_t num_inputs = 0;
  int64_t num_outputs = 0;
  int gather_tile = 0;
  int scatter_tile = 0;
  StepBreakdown cycles;
};

struct RunResult {
  FeatureMatrix features;       // final activation (or head logits)
  std::vector<Coord3> coords;   // coordinates of the final activation
  StepBreakdown total;
  std::vector<LayerRecord> layers;
};

class Engine {
 public:
  Engine(const EngineConfig& config, const DeviceConfig& device_config);

  // Instantiates the network: conv weights are deterministic draws from
  // `seed`; each linear head's weights come from a fixed per-head seed, with
  // c_in learned by walking the network's channel flow. Timing-only engines
  // store and draw no weights. Dies if a conv's c_in does not match the
  // channels reaching it.
  void Prepare(const Network& network, uint64_t seed);

  // Algorithm 2: profiles Gather/Scatter tiles per conv layer over a few
  // sampled point clouds from the dataset, picking the tile with the lowest
  // total simulated latency. Only meaningful for kMinuet with
  // autotuned_tiles; others no-op. Returns host milliseconds spent tuning.
  double Autotune(std::span<const PointCloud> samples);
  double Autotune(const PointCloud& sample) { return Autotune({&sample, 1}); }

  RunResult Run(const PointCloud& input);

  const EngineConfig& config() const { return config_; }
  Device& device() { return *device_; }
  const Network& network() const { return network_; }

  // Per-conv-layer tuned tiles (after Autotune); fixed_tile before.
  const std::vector<std::pair<int, int>>& layer_tiles() const { return layer_tiles_; }

  // The deterministic per-offset weights of a conv layer (test oracle hook).
  // Empty in timing-only mode, which stores no weights.
  const std::vector<FeatureMatrix>& conv_weights(int conv_index) const {
    return conv_weights_[static_cast<size_t>(conv_index)].per_offset;
  }

 private:
  friend class RunSession;

  struct ConvWeights {
    std::vector<FeatureMatrix> per_offset;  // K^3 matrices of c_in x c_out; none if timing-only
  };

  // The engine strategy as plain data, resolved once from config_ by the
  // constructor.
  struct Strategy {
    std::unique_ptr<MapBuilderBase> map_builder;
    // Sorted-array engine: pays the input sort and deduplicates generated
    // coordinates by sort + unique; hash engines deduplicate by hashing.
    bool sorted_coords = false;
    // Per-offset fused gather-GEMM-scatter instead of the batched dataflow.
    bool per_offset_fused = false;
    GroupingStrategy grouping = GroupingStrategy::kMapOrder;
    int stream_pool_size = 1;
  };

  // One run's state; its methods are the per-op executors (engine.cpp).
  struct RunState;

  // The one inference path: a dispatch loop over the network's instructions,
  // one RunState executor per op kind. Run() passes a default SessionCtx; a
  // session's additionally draws storage from its workspace pool and records
  // (cold) or replays (warm) an ExecutionPlan. Warm replay produces
  // bit-identical features while skipping the input radix sort, the
  // coordinate dedup charges, the Map step, and the GMaS metadata kernels.
  RunResult RunImpl(const PointCloud& input, SessionCtx& ctx);

  // Fingerprint of everything besides the coordinates that a cached plan
  // depends on: engine config plus the Prepare()/Autotune() generation (so
  // new weights or re-tuned tiles invalidate old plans implicitly).
  uint64_t PlanConfigFingerprint() const;

  EngineConfig config_;
  DeviceConfig device_config_;
  std::unique_ptr<Device> device_;
  Strategy strategy_;
  Network network_;
  bool prepared_ = false;
  uint64_t plan_generation_ = 0;  // bumped by Prepare() and Autotune()
  std::vector<ConvWeights> conv_weights_;       // indexed by conv layer
  std::vector<FeatureMatrix> linear_weights_;   // by linear instr order; none if timing-only
  std::vector<std::pair<int, int>> layer_tiles_;  // (gather, scatter) per conv
};

// Snapshot of a session's serving-path counters: run outcomes plus the two
// caches that make warm runs cheap. `plan`/`pool` are copied from the live
// PlanCache / WorkspacePool at stats() time.
struct SessionStats {
  uint64_t cold_runs = 0;
  uint64_t warm_runs = 0;
  PlanCache::Stats plan;      // lookup hits / misses / LRU evictions
  WorkspacePool::Stats pool;  // slab allocations / reuses / outstanding
};

// Persistent inference session: a workspace pool plus a plan cache bound to
// one engine. The first run of each distinct coordinate set is cold (records
// an ExecutionPlan, warms the pool); repeats are warm — same features bit for
// bit, but the Map step, metadata kernels, input sort, and per-run heap
// allocation all drop out. This is the serving loop of a deployed model:
//
//   RunSession session(engine);
//   for (const PointCloud& frame : stream) {
//     RunResult out = session.Run(frame);   // warm after first sight
//   }
class RunSession {
 public:
  explicit RunSession(Engine& engine, size_t plan_capacity = 8);

  // Semantically identical to engine.Run(input) — cold or warm.
  RunResult Run(const PointCloud& input);

  // Sequence-session entry: like Run(), but a cold run adopts `root` (a
  // pre-maintained sorted stride-1 level matching `input`, see
  // SequenceSession) instead of paying the input radix sort, and
  // `delta_cycles`/`delta_launches` — the sorted-array maintenance kernels
  // the caller already launched — are attributed to StepBreakdown::map_delta.
  // A null `root` is exactly Run().
  RunResult RunIncremental(const PointCloud& input, LevelPtr root, double delta_cycles,
                           int64_t delta_launches);

  // Snapshot including the current plan-cache and workspace-pool counters.
  SessionStats stats() const;
  PlanCache& plan_cache() { return cache_; }
  WorkspacePool& workspace_pool() { return pool_; }

  // Copies the session counters into `registry` as counters/gauges under
  // "session/...", "plan_cache/..." and "workspace_pool/...".
  void PublishMetrics(trace::MetricsRegistry& registry) const;

 private:
  Engine* engine_;
  PlanCache cache_;
  WorkspacePool pool_;
  uint64_t cold_runs_ = 0;
  uint64_t warm_runs_ = 0;
};

// Copies a run's per-layer breakdown into `registry` as gauges under
// "engine/layer<k>/..." (padding ratio, launches, simulated milliseconds)
// plus "engine/run/..." totals.
void PublishRunMetrics(const RunResult& result, const DeviceConfig& device_config,
                       trace::MetricsRegistry& registry);

}  // namespace minuet

#endif  // SRC_ENGINE_ENGINE_H_
