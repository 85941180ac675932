#include "src/hashtable/cuckoo.h"

#include <algorithm>
#include <utility>

#include "src/core/kernel_map.h"
#include "src/util/check.h"

namespace minuet {

CuckooHashTable::CuckooHashTable(double load_factor, int max_evictions)
    : load_factor_(load_factor), max_evictions_(max_evictions) {
  MINUET_CHECK_GT(load_factor, 0.0);
  MINUET_CHECK_LT(load_factor, 1.0);
  MINUET_CHECK_GT(max_evictions, 0);
}

KernelStats CuckooHashTable::Build(Device& device, std::span<const uint64_t> keys) {
  uint64_t capacity = NextPow2(
      static_cast<uint64_t>(static_cast<double>(std::max<size_t>(keys.size(), 1)) / load_factor_));
  slots_ = DeviceVector<HashSlot>(capacity, HashSlot{}, device.memory());
  stash_ = DeviceVector<HashSlot>(device.memory());
  mask_ = capacity - 1;

  KernelStats memset_stats = ChargeTableMemset(device, slots_.data(), slots_.size() * sizeof(HashSlot));
  const int64_t n = static_cast<int64_t>(keys.size());
  const int64_t num_blocks = (n + kQueriesPerBlock - 1) / kQueriesPerBlock;
  static const KernelId kCuckooInsert = KernelId::Intern("map/build/cuckoo_insert");
  KernelStats build_stats = device.Launch(
      kCuckooInsert, LaunchDims{num_blocks, kQueryThreads, 0}, [&](BlockCtx& ctx) {
        int64_t begin = ctx.block_index() * kQueriesPerBlock;
        int64_t end = std::min<int64_t>(begin + kQueriesPerBlock, n);
        ctx.GlobalRead(&keys[static_cast<size_t>(begin)],
                       static_cast<size_t>(end - begin) * sizeof(uint64_t));
        for (int64_t i = begin; i < end; ++i) {
          HashSlot incoming{keys[static_cast<size_t>(i)], static_cast<uint32_t>(i), 0};
          MINUET_DCHECK(incoming.key != kEmptySlotKey);
          bool placed = false;
          uint64_t slot = Slot1(incoming.key);
          for (int attempt = 0; attempt < max_evictions_; ++attempt) {
            ctx.GlobalRead(&slots_[slot], sizeof(HashSlot));
            ctx.Compute(kAtomicInsertOps);
            if (slots_[slot].key == kEmptySlotKey) {
              slots_[slot] = incoming;
              ctx.GlobalWrite(&slots_[slot], sizeof(HashSlot));
              placed = true;
              break;
            }
            MINUET_CHECK(slots_[slot].key != incoming.key) << "duplicate key in cuckoo build";
            // Evict the resident and re-route it through its other slot.
            std::swap(incoming, slots_[slot]);
            ctx.GlobalWrite(&slots_[slot], sizeof(HashSlot));
            uint64_t s1 = Slot1(incoming.key);
            slot = (slot == s1) ? Slot2(incoming.key) : s1;
          }
          if (!placed) {
            stash_.push_back(incoming);
            ctx.GlobalWrite(stash_.data() + stash_.size() - 1, sizeof(HashSlot));
          }
        }
      });
  build_stats += memset_stats;
  return build_stats;
}

KernelStats CuckooHashTable::Query(Device& device, std::span<const uint64_t> queries,
                                   std::span<uint32_t> results) const {
  MINUET_CHECK_EQ(queries.size(), results.size());
  MINUET_CHECK(!slots_.empty()) << "Query before Build";
  const int64_t n = static_cast<int64_t>(queries.size());
  const int64_t num_blocks = (n + kQueriesPerBlock - 1) / kQueriesPerBlock;
  static const KernelId kCuckooLookup = KernelId::Intern("map/query/cuckoo_lookup");
  return device.Launch(
      kCuckooLookup, LaunchDims{num_blocks, kQueryThreads, 0}, [&](BlockCtx& ctx) {
        int64_t begin = ctx.block_index() * kQueriesPerBlock;
        int64_t end = std::min<int64_t>(begin + kQueriesPerBlock, n);
        ctx.GlobalRead(&queries[static_cast<size_t>(begin)],
                       static_cast<size_t>(end - begin) * sizeof(uint64_t));
        for (int64_t i = begin; i < end; ++i) {
          uint64_t key = queries[static_cast<size_t>(i)];
          uint32_t found = kNoMatch;
          uint64_t s1 = Slot1(key);
          ctx.GlobalRead(&slots_[s1], sizeof(HashSlot));
          ctx.Compute(2);
          if (slots_[s1].key == key) {
            found = slots_[s1].value;
          } else {
            uint64_t s2 = Slot2(key);
            ctx.GlobalRead(&slots_[s2], sizeof(HashSlot));
            ctx.Compute(2);
            if (slots_[s2].key == key) {
              found = slots_[s2].value;
            } else if (!stash_.empty()) {
              ctx.GlobalRead(stash_.data(), stash_.size() * sizeof(HashSlot));
              ctx.Compute(stash_.size());
              for (const HashSlot& s : stash_) {
                if (s.key == key) {
                  found = s.value;
                  break;
                }
              }
            }
          }
          results[static_cast<size_t>(i)] = found;
        }
        ctx.GlobalWrite(&results[static_cast<size_t>(begin)],
                        static_cast<size_t>(end - begin) * sizeof(uint32_t));
      });
}

}  // namespace minuet
