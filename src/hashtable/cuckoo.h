// Cuckoo hash table (TorchSparse-style, after Alcantara et al.).
//
// Two hash functions over one slot array; inserts evict, bounded by a maximum
// chain length, with a small linear stash as the overflow path. Queries cost
// at most two random probes (+ stash scan on double miss) — fewer probes than
// linear probing, but both land on random lines, which is why TorchSparse's
// Map step shows the lowest L2 hit ratio in Figure 3.
#ifndef SRC_HASHTABLE_CUCKOO_H_
#define SRC_HASHTABLE_CUCKOO_H_

#include <vector>

#include "src/hashtable/hash_common.h"

namespace minuet {

class CuckooHashTable : public HashTableBase {
 public:
  explicit CuckooHashTable(double load_factor = 0.5, int max_evictions = 64);

  const char* name() const override { return "cuckoo"; }
  KernelStats Build(Device& device, std::span<const uint64_t> keys) override;
  KernelStats Query(Device& device, std::span<const uint64_t> queries,
                    std::span<uint32_t> results) const override;
  size_t MemoryBytes() const override {
    return slots_.size() * sizeof(HashSlot) + stash_.size() * sizeof(HashSlot);
  }
  const void* MemoryBase() const override { return slots_.data(); }

  size_t capacity() const { return slots_.size(); }
  size_t stash_size() const { return stash_.size(); }

 private:
  uint64_t Slot1(uint64_t key) const { return HashMix64(key) & mask_; }
  uint64_t Slot2(uint64_t key) const { return HashMix64Alt(key) & mask_; }

  double load_factor_;
  int max_evictions_;
  uint64_t mask_ = 0;
  DeviceVector<HashSlot> slots_;
  DeviceVector<HashSlot> stash_;
};

}  // namespace minuet

#endif  // SRC_HASHTABLE_CUCKOO_H_
