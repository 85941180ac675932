#include "src/gpusim/workspace_pool.h"

#include <algorithm>

#include "src/util/check.h"

namespace minuet {

int WorkspacePool::SizeClass(size_t count) {
  MINUET_DCHECK(count > 0);
  int cls = 0;
  while ((size_t{1} << cls) < count) {
    ++cls;
  }
  MINUET_CHECK_LT(cls, kNumClasses);
  return cls;
}

DeviceVector<float> WorkspacePool::Acquire(size_t count, bool zero) {
  if (count == 0) {
    return {};
  }
  const int cls = SizeClass(count);
  auto& list = free_lists_[cls];
  DeviceVector<float> slab(memory_);
  uint64_t seq = 0;
  if (!list.empty()) {
    // Oldest slab first (see CachedSlab in the header for why not LIFO).
    auto it = std::min_element(
        list.begin(), list.end(),
        [](const CachedSlab& a, const CachedSlab& b) { return a.seq < b.seq; });
    seq = it->seq;
    slab = std::move(it->storage);
    *it = std::move(list.back());
    list.pop_back();
    cached_bytes_ -= slab.capacity() * sizeof(float);
    ++stats_.reuses;
    if (zero) {
      slab.assign(count, 0.0f);
    } else {
      // Capacity covers the whole class, so this never reallocates; only the
      // grown tail (if any) is constructed, per the slab's allocator.
      slab.resize(count);
    }
  } else {
    const size_t cap = size_t{1} << cls;
    // A slab born for a no-zero request skips the fill; the flag stays with
    // its storage, so later no-zero reuses leave a grown tail unwritten too.
    if (!zero) {
      slab = DeviceVector<float>(DeviceAllocator<float>::Uninitialized(memory_));
    }
    slab.reserve(cap);
    slab.resize(count);
    seq = next_seq_++;
    ++stats_.allocations;
    stats_.bytes_allocated += cap * sizeof(float);
    live_bytes_ += cap * sizeof(float);
    stats_.high_water_bytes = std::max<uint64_t>(stats_.high_water_bytes, live_bytes_);
  }
  // Remember the slab's birth order while it is out of our custody. A stale
  // entry at the same address (a detached slab whose storage the device
  // memory has recycled into this new one) is superseded.
  const float* addr = slab.data();
  auto tag = std::find_if(outstanding_seqs_.begin(), outstanding_seqs_.end(),
                          [addr](const auto& e) { return e.first == addr; });
  if (tag != outstanding_seqs_.end()) {
    tag->second = seq;
  } else {
    outstanding_seqs_.emplace_back(addr, seq);
  }
  ++stats_.outstanding;
  return slab;
}

void WorkspacePool::Release(DeviceVector<float> slab) {
  if (slab.capacity() == 0) {
    return;
  }
  MINUET_DCHECK(stats_.outstanding > 0);
  --stats_.outstanding;
  // Store under the class the capacity can actually serve. Acquire hands out
  // exact power-of-two capacities, but a caller may have grown the slab
  // (reallocating to a non-power-of-two capacity); such a slab can still
  // serve every request of the class below its rounded-up size.
  int cls = SizeClass(slab.capacity());
  if ((size_t{1} << cls) != slab.capacity()) {
    --cls;
    if (cls < 0) {
      return;
    }
  }
  cached_bytes_ += slab.capacity() * sizeof(float);
  // Restore the birth tag assigned at Acquire. A slab the caller grew
  // (reallocated) comes back at a new address with no tag; it reads as a
  // fresh arrival in birth order, which is still pure program history.
  const float* addr = slab.data();
  uint64_t seq = next_seq_;
  auto tag = std::find_if(outstanding_seqs_.begin(), outstanding_seqs_.end(),
                          [addr](const auto& e) { return e.first == addr; });
  if (tag != outstanding_seqs_.end()) {
    seq = tag->second;
    *tag = outstanding_seqs_.back();
    outstanding_seqs_.pop_back();
  } else {
    ++next_seq_;
  }
  free_lists_[cls].push_back(CachedSlab{seq, std::move(slab)});
}

}  // namespace minuet
