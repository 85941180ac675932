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
// SortedKeyChain persists the sorted key array across frames and is the one
// place that decides, per frame, whether the delta kernels
// (map/delta/rebias, map/delta/sort_inserts, map/delta/merge) maintain it or
// the frame starts over: past kRebuildChurn the delta pass stops paying for
// itself. Every delta frame is CHECK-verified bit-identical to the frame's
// own sorted key array, so whatever is derived from the array is the same
// either way. Its two users keep only what differs between them:
// IncrementalMapBuilder charges the full coordinate sort on a rebuild and
// builds the map with MinuetMapBuilder (source_sorted/output_sorted set);
// the engine's SequenceSession hands the array to the engine as its root.
#ifndef SRC_MAP_INCREMENTAL_H_
#define SRC_MAP_INCREMENTAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/map/minuet_map.h"

namespace minuet {

// Churn fraction max(deleted, inserted) / previous size up to which a frame
// takes the delta path; above it the frame rebuilds.
inline constexpr double kRebuildChurn = 0.5;

// What advancing the chain by one frame did.
struct ChainStep {
  bool incremental = false;  // delta path taken
  double churn = 0.0;        // max(deleted, inserted) / previous size
  KernelStats delta_stats;   // the delta kernels; empty on a rebuild
};

class SortedKeyChain {
 public:
  // Advances the retained array to the frame whose true sorted key array is
  // `keys`. With a retained array and churn <= kRebuildChurn: rebias by
  // `motion_delta` (PackDelta of the rigid motion; caller guarantees no voxel
  // leaves the lattice), drop `deleted`, fold in `inserted` (both sorted
  // post-motion key lists) and CHECK the result against `keys`. Otherwise
  // Adopt(keys). With no retained array, or an empty one that grows, churn
  // is 1.0.
  ChainStep Advance(Device& device, uint64_t motion_delta, std::span<const uint64_t> deleted,
                    std::span<const uint64_t> inserted, std::span<const uint64_t> keys);

  // Rebuild: copies `keys` to the device as the retained array and counts a
  // rebuilt frame.
  void Adopt(Device& device, std::span<const uint64_t> keys);

  // Drops the retained array; the next frame rebuilds.
  void Reset();

  bool chained() const { return chained_; }
  const DeviceVector<uint64_t>& keys() const { return keys_; }
  DeviceVector<uint64_t>& keys() { return keys_; }
  int64_t frames_incremental() const { return frames_incremental_; }
  int64_t frames_rebuilt() const { return frames_rebuilt_; }

 private:
  DeviceVector<uint64_t> keys_;
  bool chained_ = false;
  int64_t frames_incremental_ = 0;
  int64_t frames_rebuilt_ = 0;
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
  // Adopts `keys` as the new frame (need not be sorted), charging the full
  // coordinate sort. Used for frame 0 and by the full-sort comparison.
  IncrementalBuildResult BuildFull(Device& device, std::span<const uint64_t> keys,
                                   std::span<const Coord3> offsets);

  // Advances the chain by one frame (SortedKeyChain::Advance), charging the
  // full coordinate sort when it rebuilds, then builds the map.
  IncrementalBuildResult BuildDelta(Device& device, uint64_t motion_delta,
                                    std::span<const uint64_t> deleted,
                                    std::span<const uint64_t> inserted,
                                    std::span<const uint64_t> expected_keys,
                                    std::span<const Coord3> offsets);

  // Drops the retained array; the next build must be full.
  void Reset() { chain_.Reset(); }

  const SortedKeyChain& chain() const { return chain_; }

 private:
  // Charges the full coordinate sort of the adopted array, sorting it in place.
  KernelStats SortKeys(Device& device);
  MapBuildResult BuildMap(Device& device, std::span<const Coord3> offsets);

  SortedKeyChain chain_;
  MinuetMapBuilder inner_;
};

// The delta maintenance kernels alone (no map build): rebias `keys` by
// `motion_delta`, then merge out `deleted` and in `inserted`. `keys` lives in
// `device`'s memory; the delta lists are copied in.
KernelStats ChargeDeltaMerge(Device& device, DeviceVector<uint64_t>& keys, uint64_t motion_delta,
                             std::span<const uint64_t> deleted,
                             std::span<const uint64_t> inserted);

}  // namespace minuet

#endif  // SRC_MAP_INCREMENTAL_H_
