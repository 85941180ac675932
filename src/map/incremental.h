// Incremental kernel maps for temporally coherent frame streams.
//
// The from-scratch Map step pays a full coordinate radix sort per cloud
// (reduce + re-pack + digit passes + unpack over all n keys). For a video
// stream, frame t is frame t-1 under a rigid translation plus a small voxel
// churn — and the order-preserving packing makes both cheap on a *sorted*
// array where a hash rebuild would start over:
//
//   * translation:  PackCoord(c + d) == PackCoord(c) + PackDelta(d), so one
//                   elementwise add rebiases every key and the array stays
//                   sorted (no re-sort);
//   * churn:        deletions and insertions are tiny sorted lists, folded in
//                   with one linear merge pass.
//
// IncrementalMapBuilder persists the sorted key array across frames and
// charges exactly those kernels (map/delta/rebias, map/delta/sort_inserts,
// map/delta/merge) instead of the full sort; map building itself is delegated
// to MinuetMapBuilder with source_sorted/output_sorted set, so the
// MapBuildResult is bit-identical to a from-scratch build over the same
// (sorted) coordinates — the correctness invariant, CHECK-enforced against
// the caller-supplied expected key array every frame. Past a churn threshold
// the delta pass stops paying for itself and the builder falls back to the
// full rebuild.
#ifndef SRC_MAP_INCREMENTAL_H_
#define SRC_MAP_INCREMENTAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/map/minuet_map.h"

namespace minuet {

struct IncrementalMapConfig {
  MinuetMapConfig map;
  // Churn fraction max(deleted, inserted) / previous size above which the
  // delta merge is abandoned for a full re-sort.
  double rebuild_threshold = 0.5;
};

struct IncrementalBuildResult {
  // Bit-identical to MinuetMapBuilder::Build over the same sorted keys.
  MapBuildResult map;
  // Cost of maintaining the sorted key array this frame: either the delta
  // kernels (incremental) or the full coordinate sort (rebuild). This is the
  // line the stream bench compares across the two paths.
  KernelStats delta_stats;
  bool incremental = false;
  double churn = 0.0;  // max(deleted, inserted) / previous size
};

class IncrementalMapBuilder {
 public:
  explicit IncrementalMapBuilder(const IncrementalMapConfig& config = {});

  // Adopts `keys` as the new frame (need not be sorted), charging the full
  // coordinate sort. Used for frame 0 and as the high-churn fallback.
  IncrementalBuildResult BuildFull(Device& device, std::span<const uint64_t> keys,
                                   std::span<const Coord3> offsets);

  // Advances the retained array by one frame: rebias by `motion_delta`
  // (PackDelta of the rigid motion; caller guarantees no voxel leaves the
  // lattice), drop `deleted`, fold in `inserted` (both sorted post-motion key
  // lists), then build the map. `expected_keys` is the frame's true sorted
  // key array; the merged state is CHECK-verified against it. Falls back to
  // BuildFull(expected_keys) when there is no retained state or the churn
  // exceeds the threshold.
  IncrementalBuildResult BuildDelta(Device& device, uint64_t motion_delta,
                                    std::span<const uint64_t> deleted,
                                    std::span<const uint64_t> inserted,
                                    std::span<const uint64_t> expected_keys,
                                    std::span<const Coord3> offsets);

  // Drops the retained array; the next build must be full.
  void Reset();

  bool has_state() const { return has_state_; }
  std::span<const uint64_t> keys() const { return keys_; }
  int64_t frames_incremental() const { return frames_incremental_; }
  int64_t frames_rebuilt() const { return frames_rebuilt_; }
  const IncrementalMapConfig& config() const { return config_; }

 private:
  IncrementalMapConfig config_;
  MinuetMapBuilder inner_;
  DeviceVector<uint64_t> keys_;
  bool has_state_ = false;
  int64_t frames_incremental_ = 0;
  int64_t frames_rebuilt_ = 0;
};

// The delta maintenance kernels alone (no map build): rebias `keys` by
// `motion_delta`, then merge out `deleted` and in `inserted`. Exposed for the
// engine's sequence session, which owns its own coordinate levels and only
// needs the sorted-array maintenance + its simulated cost. `keys` lives in
// `device`'s memory; the delta lists are copied in.
KernelStats ChargeDeltaMerge(Device& device, DeviceVector<uint64_t>& keys, uint64_t motion_delta,
                             std::span<const uint64_t> deleted,
                             std::span<const uint64_t> inserted);

}  // namespace minuet

#endif  // SRC_MAP_INCREMENTAL_H_
