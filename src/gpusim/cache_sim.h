// Set-associative LRU cache simulator used as the device's L2.
//
// Addresses are device addresses (offsets into the owning Device's memory,
// see device_memory.h), so which lines share a set is decided by the
// program's own allocation sequence; only hit/miss behaviour matters.
//
// Each set is `ways` 32-bit line tags ordered by recency, most recent first,
// with kEmpty in unfilled ways: a hit moves its tag to the front, a miss
// shifts the set down one way (dropping the last, least recently used tag)
// and inserts at the front. That is exact LRU with no per-way stamp, valid
// flag or clock. The tag array starts on a 64-byte boundary, so a 16-way set
// is exactly one 64-byte host cache line. Line numbers must stay below
// kEmpty; Device CHECKs that its whole address space does once, at
// construction.
#ifndef SRC_GPUSIM_CACHE_SIM_H_
#define SRC_GPUSIM_CACHE_SIM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace minuet {

class CacheSim {
 public:
  // The tag of an unfilled way; no line number may equal it.
  static constexpr uint32_t kEmpty = UINT32_MAX;

  // capacity_bytes must be a multiple of line_bytes * ways.
  CacheSim(size_t capacity_bytes, int ways, int line_bytes);
  // tags_ points into storage_, so a copy would share the original's sets.
  CacheSim(const CacheSim&) = delete;
  CacheSim& operator=(const CacheSim&) = delete;
  CacheSim(CacheSim&&) = default;
  CacheSim& operator=(CacheSim&&) = default;

  // Touches every line of `lines` (each = addr >> log2(line_bytes), below
  // kEmpty) in order, and returns how many hit.
  // The device records each block's post-L1 lines and walks them here, so
  // the per-line work is one tight loop over a buffer.
  uint64_t AccessLines(std::span<const uint32_t> lines);

  // Drops all cached lines and resets hit/miss counters.
  void Flush();
  void ResetCounters();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  double HitRatio() const;

  int line_bytes() const { return line_bytes_; }
  size_t num_sets() const { return num_sets_; }
  int ways() const { return ways_; }

 private:
  friend struct CacheSimPeer;  // tests: the 16-way update on either path

  // Cheap tag-bit mix so that allocator-aligned structures do not all land
  // in set 0; sets need not be a power of two (power-of-two counts take the
  // equivalent mask path, skipping the modulo).
  size_t SetOf(uint64_t line) const {
    const uint64_t mixed = line * 0x9e3779b97f4a7c15ULL;
    return set_mask_ != 0 ? static_cast<size_t>(mixed & set_mask_)
                          : static_cast<size_t>(mixed % num_sets_);
  }
  // AccessLines' update of `count` lines whose sets start at `sets[i]`: the
  // way search and shift, or (when sixteen_way_avx2_ is set) the AVX2
  // update. Each returns the hits.
  uint64_t WalkBatch(uint32_t* const* sets, const uint32_t* lines, size_t count) const;
  static uint64_t WalkBatchSixteenWaysAvx2(uint32_t* const* sets, const uint32_t* lines,
                                           size_t count);

  // AccessLines computes the sets of this many lines, and prefetches their
  // tags, before updating any of them.
  static constexpr size_t kBatch = 32;

  size_t num_sets_;
  // num_sets_ - 1 when the set count is a power of two, else 0. The mixed
  // tag's set index is then a mask instead of a 64-bit modulo — same value,
  // since x % 2^k == x & (2^k - 1) for unsigned x — which matters because
  // set selection runs once per simulated line transaction.
  size_t set_mask_ = 0;
  // A 16-way set is updated with AVX2 compares and blends when the host has
  // them, without a branch on where the tag sits; otherwise, and for any
  // other associativity, by the way search and a shift. Both make the same
  // update.
  bool sixteen_way_avx2_ = false;
  int ways_;
  int line_bytes_;
  // The tags, num_sets_ x ways_ with the most recent first, start at the
  // first 64-byte boundary in storage_. An ordinary allocation with slack
  // rather than an aligned operator new, which under glibc raised the peak
  // RSS of a functional A100 run with Autotune from 72 to 84 MB.
  std::vector<uint32_t> storage_;
  uint32_t* tags_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace minuet

#endif  // SRC_GPUSIM_CACHE_SIM_H_
