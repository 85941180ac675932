#include "src/hashtable/spatial.h"

#include <algorithm>

#include "src/core/kernel_map.h"
#include "src/util/check.h"

namespace minuet {

SpatialHashTable::SpatialHashTable(double slots_per_key) : slots_per_key_(slots_per_key) {
  MINUET_CHECK_GE(slots_per_key, 1.5);
}

KernelStats SpatialHashTable::Build(Device& device, std::span<const uint64_t> keys) {
  uint64_t want_slots = static_cast<uint64_t>(
      static_cast<double>(std::max<size_t>(keys.size(), 1)) * slots_per_key_);
  num_buckets_ = NextPow2((want_slots + kBucketSlots - 1) / kBucketSlots);
  keys_ = DeviceVector<uint64_t>(num_buckets_ * kBucketSlots, kEmptySlotKey, device.memory());
  values_ = DeviceVector<uint32_t>(num_buckets_ * kBucketSlots, 0, device.memory());

  KernelStats memset_stats = ChargeTableMemset(device, keys_.data(), keys_.size() * sizeof(uint64_t));
  const int64_t n = static_cast<int64_t>(keys.size());
  const int64_t num_blocks = (n + kQueriesPerBlock - 1) / kQueriesPerBlock;
  static const KernelId kSpatialInsert = KernelId::Intern("map/build/spatial_insert");
  KernelStats build_stats = device.Launch(
      kSpatialInsert, LaunchDims{num_blocks, kQueryThreads, 0}, [&](BlockCtx& ctx) {
        int64_t begin = ctx.block_index() * kQueriesPerBlock;
        int64_t end = std::min<int64_t>(begin + kQueriesPerBlock, n);
        ctx.GlobalRead(&keys[static_cast<size_t>(begin)],
                       static_cast<size_t>(end - begin) * sizeof(uint64_t));
        for (int64_t i = begin; i < end; ++i) {
          uint64_t key = keys[static_cast<size_t>(i)];
          MINUET_DCHECK(key != kEmptySlotKey);
          uint64_t bucket = HashMix64(key) & (num_buckets_ - 1);
          bool placed = false;
          while (!placed) {
            uint64_t* base = &keys_[bucket * kBucketSlots];
            ctx.GlobalRead(base, kBucketSlots * sizeof(uint64_t));
            ctx.Compute(kBucketSlots + kAtomicInsertOps);
            for (int s = 0; s < kBucketSlots; ++s) {
              MINUET_CHECK(base[s] != key) << "duplicate key in spatial build";
              if (base[s] == kEmptySlotKey) {
                base[s] = key;
                values_[bucket * kBucketSlots + static_cast<size_t>(s)] =
                    static_cast<uint32_t>(i);
                ctx.GlobalWrite(&base[s], sizeof(uint64_t));
                ctx.GlobalWrite(&values_[bucket * kBucketSlots + static_cast<size_t>(s)],
                                sizeof(uint32_t));
                placed = true;
                break;
              }
            }
            if (!placed) {
              bucket = (bucket + 1) & (num_buckets_ - 1);
            }
          }
        }
      });
  build_stats += memset_stats;
  return build_stats;
}

KernelStats SpatialHashTable::Query(Device& device, std::span<const uint64_t> queries,
                                    std::span<uint32_t> results) const {
  MINUET_CHECK_EQ(queries.size(), results.size());
  MINUET_CHECK(!keys_.empty()) << "Query before Build";
  const int64_t n = static_cast<int64_t>(queries.size());
  const int64_t num_blocks = (n + kQueriesPerBlock - 1) / kQueriesPerBlock;
  static const KernelId kSpatialLookup = KernelId::Intern("map/query/spatial_lookup");
  return device.Launch(
      kSpatialLookup, LaunchDims{num_blocks, kQueryThreads, 0}, [&](BlockCtx& ctx) {
        int64_t begin = ctx.block_index() * kQueriesPerBlock;
        int64_t end = std::min<int64_t>(begin + kQueriesPerBlock, n);
        ctx.GlobalRead(&queries[static_cast<size_t>(begin)],
                       static_cast<size_t>(end - begin) * sizeof(uint64_t));
        for (int64_t i = begin; i < end; ++i) {
          uint64_t key = queries[static_cast<size_t>(i)];
          uint64_t bucket = HashMix64(key) & (num_buckets_ - 1);
          uint32_t found = kNoMatch;
          bool done = false;
          while (!done) {
            const uint64_t* base = &keys_[bucket * kBucketSlots];
            ctx.GlobalRead(base, kBucketSlots * sizeof(uint64_t));
            ctx.Compute(kBucketSlots);
            for (int s = 0; s < kBucketSlots; ++s) {
              if (base[s] == key) {
                found = values_[bucket * kBucketSlots + static_cast<size_t>(s)];
                ctx.GlobalRead(&values_[bucket * kBucketSlots + static_cast<size_t>(s)],
                               sizeof(uint32_t));
                done = true;
                break;
              }
              if (base[s] == kEmptySlotKey) {
                done = true;
                break;
              }
            }
            if (!done) {
              bucket = (bucket + 1) & (num_buckets_ - 1);
            }
          }
          results[static_cast<size_t>(i)] = found;
        }
        ctx.GlobalWrite(&results[static_cast<size_t>(begin)],
                        static_cast<size_t>(end - begin) * sizeof(uint32_t));
      });
}

}  // namespace minuet
