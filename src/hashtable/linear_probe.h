// Open-addressing linear-probing hash table (MinkowskiEngine-style).
//
// MinkowskiEngine's coordinate map is an open-addressing table over packed
// coordinates; its Map-step query stream is one random probe chain per
// (output, offset) pair, which is the access pattern behind its ~36% L2 hit
// ratio in Figure 3.
#ifndef SRC_HASHTABLE_LINEAR_PROBE_H_
#define SRC_HASHTABLE_LINEAR_PROBE_H_

#include <vector>

#include "src/hashtable/hash_common.h"

namespace minuet {

class LinearProbeHashTable : public HashTableBase {
 public:
  // load_factor in (0, 1): table capacity is NextPow2(n / load_factor).
  explicit LinearProbeHashTable(double load_factor = 0.5);

  const char* name() const override { return "linear_probe"; }
  KernelStats Build(Device& device, std::span<const uint64_t> keys) override;
  KernelStats Query(Device& device, std::span<const uint64_t> queries,
                    std::span<uint32_t> results) const override;
  size_t MemoryBytes() const override { return slots_.size() * sizeof(HashSlot); }
  const void* MemoryBase() const override { return slots_.data(); }

  // Exposed for tests.
  size_t capacity() const { return slots_.size(); }

 private:
  double load_factor_;
  uint64_t mask_ = 0;
  DeviceVector<HashSlot> slots_;
};

}  // namespace minuet

#endif  // SRC_HASHTABLE_LINEAR_PROBE_H_
