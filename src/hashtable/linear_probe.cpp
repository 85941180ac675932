#include "src/hashtable/linear_probe.h"

#include <algorithm>

#include "src/core/kernel_map.h"
#include "src/util/check.h"

namespace minuet {

LinearProbeHashTable::LinearProbeHashTable(double load_factor) : load_factor_(load_factor) {
  MINUET_CHECK_GT(load_factor, 0.0);
  MINUET_CHECK_LT(load_factor, 1.0);
}

KernelStats LinearProbeHashTable::Build(Device& device, std::span<const uint64_t> keys) {
  uint64_t capacity = NextPow2(
      static_cast<uint64_t>(static_cast<double>(std::max<size_t>(keys.size(), 1)) / load_factor_));
  slots_ = DeviceVector<HashSlot>(capacity, HashSlot{}, device.memory());
  mask_ = capacity - 1;

  KernelStats memset_stats = ChargeTableMemset(device, slots_.data(), slots_.size() * sizeof(HashSlot));
  const int64_t n = static_cast<int64_t>(keys.size());
  const int64_t num_blocks = (n + kQueriesPerBlock - 1) / kQueriesPerBlock;
  static const KernelId kLinearProbeInsert = KernelId::Intern("map/build/linear_probe_insert");
  KernelStats build_stats = device.Launch(
      kLinearProbeInsert, LaunchDims{num_blocks, kQueryThreads, 0}, [&](BlockCtx& ctx) {
        int64_t begin = ctx.block_index() * kQueriesPerBlock;
        int64_t end = std::min<int64_t>(begin + kQueriesPerBlock, n);
        ctx.GlobalRead(&keys[static_cast<size_t>(begin)],
                       static_cast<size_t>(end - begin) * sizeof(uint64_t));
        for (int64_t i = begin; i < end; ++i) {
          uint64_t key = keys[static_cast<size_t>(i)];
          MINUET_DCHECK(key != kEmptySlotKey);
          uint64_t slot = HashMix64(key) & mask_;
          while (true) {
            ctx.GlobalRead(&slots_[slot], sizeof(HashSlot));
            ctx.Compute(kAtomicInsertOps);
            if (slots_[slot].key == kEmptySlotKey) {
              slots_[slot] = HashSlot{key, static_cast<uint32_t>(i), 0};
              ctx.GlobalWrite(&slots_[slot], sizeof(HashSlot));
              break;
            }
            MINUET_CHECK(slots_[slot].key != key) << "duplicate key in hash build";
            slot = (slot + 1) & mask_;
          }
        }
      });
  build_stats += memset_stats;
  return build_stats;
}

KernelStats LinearProbeHashTable::Query(Device& device, std::span<const uint64_t> queries,
                                        std::span<uint32_t> results) const {
  MINUET_CHECK_EQ(queries.size(), results.size());
  MINUET_CHECK(!slots_.empty()) << "Query before Build";
  const int64_t n = static_cast<int64_t>(queries.size());
  const int64_t num_blocks = (n + kQueriesPerBlock - 1) / kQueriesPerBlock;
  static const KernelId kLinearProbeLookup = KernelId::Intern("map/query/linear_probe_lookup");
  return device.Launch(
      kLinearProbeLookup, LaunchDims{num_blocks, kQueryThreads, 0}, [&](BlockCtx& ctx) {
        int64_t begin = ctx.block_index() * kQueriesPerBlock;
        int64_t end = std::min<int64_t>(begin + kQueriesPerBlock, n);
        ctx.GlobalRead(&queries[static_cast<size_t>(begin)],
                       static_cast<size_t>(end - begin) * sizeof(uint64_t));
        for (int64_t i = begin; i < end; ++i) {
          uint64_t key = queries[static_cast<size_t>(i)];
          uint64_t slot = HashMix64(key) & mask_;
          uint32_t found = kNoMatch;
          while (true) {
            ctx.GlobalRead(&slots_[slot], sizeof(HashSlot));
            ctx.Compute(2);
            if (slots_[slot].key == key) {
              found = slots_[slot].value;
              break;
            }
            if (slots_[slot].key == kEmptySlotKey) {
              break;
            }
            slot = (slot + 1) & mask_;
          }
          results[static_cast<size_t>(i)] = found;
        }
        ctx.GlobalWrite(&results[static_cast<size_t>(begin)],
                        static_cast<size_t>(end - begin) * sizeof(uint32_t));
      });
}

}  // namespace minuet
