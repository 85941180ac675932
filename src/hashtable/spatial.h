// Bucketed spatial hash table (Open3D/ASH-style).
//
// Structure-of-arrays layout: keys live in cache-line-sized buckets of 16
// (16 x 8B = one 128B line) with values in a parallel array touched only on
// hit. A lookup usually costs exactly one key-line read, and the key table is
// half the footprint of an AoS slot table — which is why Open3D posts the
// best hit ratio among the hash-based baselines in Figure 3, yet still far
// below Minuet's sorted access stream.
#ifndef SRC_HASHTABLE_SPATIAL_H_
#define SRC_HASHTABLE_SPATIAL_H_

#include <vector>

#include "src/hashtable/hash_common.h"

namespace minuet {

class SpatialHashTable : public HashTableBase {
 public:
  // slots_per_key >= 1.5 controls the bucket head-room.
  explicit SpatialHashTable(double slots_per_key = 2.0);

  const char* name() const override { return "spatial"; }
  KernelStats Build(Device& device, std::span<const uint64_t> keys) override;
  KernelStats Query(Device& device, std::span<const uint64_t> queries,
                    std::span<uint32_t> results) const override;
  size_t MemoryBytes() const override {
    return keys_.size() * sizeof(uint64_t) + values_.size() * sizeof(uint32_t);
  }
  const void* MemoryBase() const override { return keys_.data(); }

  size_t num_buckets() const { return num_buckets_; }

  static constexpr int kBucketSlots = 16;  // 16 x 8B keys = one 128B line

 private:
  double slots_per_key_;
  uint64_t num_buckets_ = 0;
  DeviceVector<uint64_t> keys_;    // num_buckets_ * kBucketSlots
  DeviceVector<uint32_t> values_;  // parallel to keys_
};

}  // namespace minuet

#endif  // SRC_HASHTABLE_SPATIAL_H_
