// Reuse pool for float workspaces in device memory (the serving path's
// answer to per-inference buffer churn).
//
// Slabs are handed out by power-of-two size class: Acquire rounds the request
// up to the next power of two, reuses a cached slab of that class when one is
// free, and otherwise allocates from the pool's DeviceMemory. Release returns
// the slab to its class's free list instead of the device allocator. A warm
// serving loop therefore reaches a steady state where Acquire never
// allocates — the Stats counters make that property testable
// (bench/serve_warm_loop asserts allocations stop after warm-up).
//
// The pool stores raw DeviceVector<float> storage rather than FeatureMatrix so
// that src/gpusim stays below src/core in the dependency order; FeatureMatrix
// has an adopt-storage constructor and TakeStorage() for the round trip.
//
// Not thread-safe: one pool per session / per thread.
#ifndef SRC_GPUSIM_WORKSPACE_POOL_H_
#define SRC_GPUSIM_WORKSPACE_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/gpusim/device_memory.h"

namespace minuet {

class WorkspacePool {
 public:
  struct Stats {
    // Slabs allocated from device memory (cache misses).
    uint64_t allocations = 0;
    // Acquisitions served from a free list (cache hits).
    uint64_t reuses = 0;
    // Total bytes ever allocated through this pool.
    uint64_t bytes_allocated = 0;
    // Peak bytes simultaneously owned (outstanding + cached), the
    // steady-state footprint a real allocator would reserve.
    uint64_t high_water_bytes = 0;
    // Slabs currently acquired and not yet released.
    int64_t outstanding = 0;
  };

  // Slabs come from `memory`; null allocates them on the host heap, where
  // kernels cannot read them.
  explicit WorkspacePool(DeviceMemory* memory = nullptr) : memory_(memory) {}
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  // Returns storage with size() == count (capacity: count rounded up to a
  // power of two). Contents are zero-filled only when `zero` is set;
  // otherwise they are indeterminate (a reused slab's stale data, or a fresh
  // slab's unwritten memory), so the caller must define every element it
  // reads. Timing-only runs acquire every slab this way: they read and write
  // no payload, so their slabs stay untouched, and only the results handed
  // to a caller are defined (as host zeros).
  DeviceVector<float> Acquire(size_t count, bool zero);

  // Returns a slab to its size-class free list. Slabs must originate from
  // Acquire on this pool (releasing a moved-from/empty vector is a no-op).
  void Release(DeviceVector<float> slab);

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

  // Bytes currently cached in free lists (not outstanding).
  size_t cached_bytes() const { return cached_bytes_; }

 private:
  static constexpr int kNumClasses = 48;  // 2^47 floats is far past any cloud
  static int SizeClass(size_t count);

  // A cached slab plus the birth order of its storage. Acquire hands out the
  // oldest free slab of a class rather than the most recently released one: a
  // LIFO would make the slab a request receives depend on the *order* of the
  // previous run's releases, so replaying the same acquire/release sequence
  // would permute the slab<->kernel assignment every pass, and with it the
  // device addresses — and so the cache access stream — of every warm run.
  // The birth sequence is pure program history, so the choice is identical
  // across replays in one process and across processes: the in-process
  // replay identity the serving tests assert.
  struct CachedSlab {
    uint64_t seq = 0;
    DeviceVector<float> storage;
  };

  DeviceMemory* memory_;
  std::vector<CachedSlab> free_lists_[kNumClasses];
  // Birth order of outstanding slabs, keyed by their storage address so
  // Release can restore the tag (the caller sees a plain DeviceVector). An
  // address is a stable identity while the slab is alive; a detached slab's
  // stale entry is superseded when its address is handed out again.
  std::vector<std::pair<const float*, uint64_t>> outstanding_seqs_;
  uint64_t next_seq_ = 0;
  size_t live_bytes_ = 0;    // outstanding + cached capacity bytes
  size_t cached_bytes_ = 0;  // capacity bytes sitting in free lists
  Stats stats_;
};

}  // namespace minuet

#endif  // SRC_GPUSIM_WORKSPACE_POOL_H_
