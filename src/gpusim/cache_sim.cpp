#include "src/gpusim/cache_sim.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/util/check.h"

namespace minuet {

namespace {

// Four ways compared at once as a GCC/Clang vector type: one SSE2 register
// on x86-64, one NEON register on aarch64.
using TagLanes = uint32_t __attribute__((vector_size(16)));
using TagHalves = uint64_t __attribute__((vector_size(16)));

// The first way in [0, ways) holding `tag`, or ways - 1 (the least recent)
// when none does; ways is a multiple of 4. Groups are scanned most recent
// first, so a hit on a recent way costs one compare. A tag sits in at most
// one way of its set, so each group's matches, masked to (lane + 1), OR down
// to that lane + 1, or to 0 on no match.
int FindWayVector(const uint32_t* tags, int ways, uint32_t tag) {
  const TagLanes needle = TagLanes{} + tag;
  for (int group = 0; group < ways; group += 4) {
    TagLanes lanes;
    std::memcpy(&lanes, tags + group, sizeof(lanes));
    const TagLanes matches = reinterpret_cast<TagLanes>(lanes == needle);
    const TagHalves halves = reinterpret_cast<TagHalves>(matches & TagLanes{1, 2, 3, 4});
    const uint64_t either = halves[0] | halves[1];
    const uint32_t lane_plus_one = static_cast<uint32_t>(either | (either >> 32));
    if (lane_plus_one != 0) {
      return group + static_cast<int>(lane_plus_one) - 1;
    }
  }
  return ways - 1;
}

}  // namespace

CacheSim::CacheSim(size_t capacity_bytes, int ways, int line_bytes)
    : ways_(ways), line_bytes_(line_bytes) {
  MINUET_CHECK_GT(ways, 0);
  MINUET_CHECK_GT(line_bytes, 0);
  MINUET_CHECK(std::has_single_bit(static_cast<unsigned>(line_bytes)));
  line_shift_ = std::countr_zero(static_cast<unsigned>(line_bytes));
  size_t lines = capacity_bytes / static_cast<size_t>(line_bytes);
  MINUET_CHECK_GE(lines, static_cast<size_t>(ways));
  num_sets_ = lines / static_cast<size_t>(ways);
  MINUET_CHECK_GT(num_sets_, 0u);
  if (std::has_single_bit(num_sets_)) {
    set_mask_ = num_sets_ - 1;
  }
  constexpr size_t kHostLineTags = 64 / sizeof(uint32_t);
  storage_.assign(num_sets_ * static_cast<size_t>(ways_) + kHostLineTags - 1, kEmpty);
  const size_t misalignment = reinterpret_cast<uintptr_t>(storage_.data()) % 64;
  tags_ = storage_.data() + (misalignment == 0 ? 0 : (64 - misalignment) / sizeof(uint32_t));
}

bool CacheSim::AccessLine(uint64_t line) {
  MINUET_DCHECK(line < kEmpty);
  // Cheap tag-bit mix so that allocator-aligned structures do not all land in
  // set 0; sets need not be a power of two (power-of-two counts take the
  // equivalent mask path, skipping the modulo).
  uint64_t mixed = line * 0x9e3779b97f4a7c15ULL;
  size_t set = set_mask_ != 0 ? static_cast<size_t>(mixed & set_mask_)
                              : static_cast<size_t>(mixed % num_sets_);
  uint32_t* tags = &tags_[set * static_cast<size_t>(ways_)];
  const uint32_t tag = static_cast<uint32_t>(line);

  // The tag's way on a hit, the last (least recent) way on a miss. Either
  // way, the ways in front of it move down one and the tag goes first.
  uint32_t* way = ways_ % 4 == 0 ? tags + FindWayVector(tags, ways_, tag)
                                 : std::find(tags, tags + ways_ - 1, tag);
  const bool hit = *way == tag;
  std::copy_backward(tags, way, way + 1);
  tags[0] = tag;
  if (hit) {
    ++hits_;
  } else {
    ++misses_;
  }
  return hit;
}

void CacheSim::Flush() {
  std::fill(storage_.begin(), storage_.end(), kEmpty);
  ResetCounters();
}

void CacheSim::ResetCounters() {
  hits_ = 0;
  misses_ = 0;
}

double CacheSim::HitRatio() const {
  uint64_t total = hits_ + misses_;
  if (total == 0) {
    return 0.0;
  }
  return static_cast<double>(hits_) / static_cast<double>(total);
}

}  // namespace minuet
