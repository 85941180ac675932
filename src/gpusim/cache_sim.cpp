#include "src/gpusim/cache_sim.h"

#include <algorithm>
#include <bit>

#include "src/util/check.h"

namespace minuet {

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
  tags_.assign(num_sets_ * static_cast<size_t>(ways_), kEmpty);
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
  uint32_t* way = std::find(tags, tags + ways_ - 1, tag);
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
  std::fill(tags_.begin(), tags_.end(), kEmpty);
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
