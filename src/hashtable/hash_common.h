// Shared bits for the GPU hash-table baselines.
#ifndef SRC_HASHTABLE_HASH_COMMON_H_
#define SRC_HASHTABLE_HASH_COMMON_H_

#include <cstdint>
#include <span>

#include "src/gpusim/device.h"

namespace minuet {

// Packed keys are < 2^63, so an all-ones key can mark an empty slot.
inline constexpr uint64_t kEmptySlotKey = UINT64_MAX;

// 16-byte slot, matching the (key, index) payloads real SC engines store.
struct HashSlot {
  uint64_t key = kEmptySlotKey;
  uint32_t value = 0;
  uint32_t pad = 0;
};
static_assert(sizeof(HashSlot) == 16);

// SplitMix64-style finaliser; well distributed for packed coordinates.
inline uint64_t HashMix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Second independent hash for cuckoo tables.
inline uint64_t HashMix64Alt(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// The interface every kernel-map baseline builds on: insert all source keys
// with values 0..n-1, then answer batched existence queries.
class HashTableBase {
 public:
  virtual ~HashTableBase() = default;

  virtual const char* name() const = 0;

  // Builds the table from scratch in `device`'s memory. Keys must be unique
  // and, like `queries` and `results` below, live in that memory too.
  virtual KernelStats Build(Device& device, std::span<const uint64_t> keys) = 0;

  // results[i] = value of queries[i], or kNoMatch (0xFFFFFFFF) if absent.
  virtual KernelStats Query(Device& device, std::span<const uint64_t> queries,
                            std::span<uint32_t> results) const = 0;

  virtual size_t MemoryBytes() const = 0;

  // Base address of the table storage (for traffic accounting by callers).
  virtual const void* MemoryBase() const = 0;
};

// Queries processed per thread block by all query kernels.
inline constexpr int64_t kQueriesPerBlock = 1024;
inline constexpr int kQueryThreads = 128;

// Smallest power of two >= max(n, 1).
uint64_t NextPow2(uint64_t n);

// Charges the table-initialisation memset that every hash build pays before
// inserting (the table must be in the empty state; CUDA engines cudaMemset).
KernelStats ChargeTableMemset(Device& device, const void* table, size_t bytes);

// Extra lane-ops charged per insert probe: an atomicCAS retry loop costs more
// than a plain load/compare.
inline constexpr uint64_t kAtomicInsertOps = 12;

}  // namespace minuet

#endif  // SRC_HASHTABLE_HASH_COMMON_H_
