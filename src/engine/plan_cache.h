// Serving-path plan cache (the repeated-inference layer).
//
// A real deployment runs the same network over a stream of point clouds, and
// LiDAR streams in particular revisit coordinate sets (static scenes, fixed
// voxel grids, regression benchmarks replaying one cloud). Everything the Map
// step and the GMaS metadata kernels produce is a pure function of
// (coordinate set, layer config, device): the downsampled coordinate levels,
// the kernel maps, the GEMM grouping plans, the gather/scatter metadata
// tables, and the autotuned tile sizes. PlanCache memoises all of it as one
// ExecutionPlan per coordinate set, so a warm Engine::RunSession run replays
// the plan and only executes the data-dependent work (gather, GEMM, scatter,
// elementwise) — the paper's Map/metadata steps drop out entirely.
//
// Keying: PlanKey = (order-sensitive fingerprint of the raw coordinates,
// engine-config fingerprint, device name). The coordinate fingerprint hashes
// the *presentation order* too, because the engine permutes features by the
// sorted order of exactly this input; two clouds with the same coordinates in
// different order still map to the same sorted root, so this is conservative
// (never wrong, occasionally a redundant cold run).
//
// Eviction: bounded LRU. Invalidation: the engine bumps its plan generation
// on Prepare()/Autotune(), which changes the config fingerprint, so stale
// plans can never be replayed against new weights or tiles.
#ifndef SRC_ENGINE_PLAN_CACHE_H_
#define SRC_ENGINE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/coordinate.h"
#include "src/core/kernel_map.h"
#include "src/gmas/grouping.h"
#include "src/gmas/metadata.h"
#include "src/gpusim/workspace_pool.h"

namespace minuet {

// A coordinate set at one tensor stride. `parent` is the finer level this one
// was downsampled from; transposed convs upsample back to it. Keys are always
// sorted (library invariant) — this is the cross-layer reuse of Section 5.1.1.
struct CoordLevel {
  int32_t tensor_stride = 1;
  std::vector<Coord3> coords;
  DeviceVector<uint64_t> keys;  // in the engine's device memory
  std::shared_ptr<CoordLevel> parent;

  int64_t size() const { return static_cast<int64_t>(coords.size()); }
};
using LevelPtr = std::shared_ptr<CoordLevel>;

// Cached artifacts of one non-1x1 conv instruction, in program order.
// `grouping`/`tables` are only set for the batched (gather-GEMM-scatter)
// dataflow; the per-offset fused dataflow needs just the map.
struct ConvStep {
  LevelPtr out_level;
  std::shared_ptr<const KernelMap> kernel_map;
  std::shared_ptr<const GroupingPlan> grouping;
  std::shared_ptr<const MetadataTables> tables;
};

// Cached artifacts of one strided/windowed pooling instruction.
struct PoolStep {
  LevelPtr out_level;
  std::shared_ptr<const MapPositionTable> table;
};

// Everything coordinate-dependent that one Run() computes, recorded by a cold
// session run and replayed by warm ones.
struct ExecutionPlan {
  LevelPtr root;                            // sorted stride-1 level
  std::vector<ConvStep> conv_steps;         // one per non-1x1 conv instr
  std::vector<PoolStep> pool_steps;         // one per kMaxPool/kAvgPool instr
  std::vector<std::pair<int, int>> tiles;   // layer_tiles snapshot at record
};

struct PlanKey {
  uint64_t coord_fingerprint = 0;
  uint64_t config_fingerprint = 0;  // engine config + weight/tile generation
  std::string device;

  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  size_t operator()(const PlanKey& key) const;
};

// Order-sensitive 64-bit fingerprint of a coordinate sequence.
uint64_t FingerprintCoords(std::span<const Coord3> coords);

// Bounded LRU map from PlanKey to ExecutionPlan. Not thread-safe (one cache
// per session, sessions are single-threaded like the engine itself).
class PlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  explicit PlanCache(size_t capacity = 8);

  // Returns the cached plan (bumping it to most-recently-used) or nullptr.
  std::shared_ptr<const ExecutionPlan> Lookup(const PlanKey& key);

  // Inserts (or replaces) the plan for `key`, evicting the least recently
  // used entry if the cache is at capacity.
  void Insert(const PlanKey& key, std::shared_ptr<const ExecutionPlan> plan);

  const Stats& stats() const { return stats_; }
  size_t size() const { return lru_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  using Entry = std::pair<PlanKey, std::shared_ptr<const ExecutionPlan>>;

  size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash> index_;
  Stats stats_;
};

// Per-run session state threaded through Engine::RunImpl. All borrowed. A
// default SessionCtx, which is what Engine::Run passes, reproduces the
// stateless behaviour exactly.
struct SessionCtx {
  // Activation and GMaS buffer storage comes from here instead of the heap.
  WorkspacePool* pool = nullptr;
  // Cold run of a session: fill this plan while executing normally.
  ExecutionPlan* record = nullptr;
  // Warm run: replay this plan, skipping map building and metadata kernels.
  const ExecutionPlan* replay = nullptr;
  // Replay cursors (consumed in program order).
  size_t conv_cursor = 0;
  size_t pool_cursor = 0;
  // Sequence runs (incremental kernel maps): a pre-maintained sorted stride-1
  // level adopted as the root instead of paying the input radix sort. The
  // caller already launched the sorted-array maintenance kernels; their cost
  // rides along here and is attributed to StepBreakdown::map_delta.
  LevelPtr incremental_root;
  double incremental_cycles = 0.0;
  int64_t incremental_launches = 0;
};

}  // namespace minuet

#endif  // SRC_ENGINE_PLAN_CACHE_H_
