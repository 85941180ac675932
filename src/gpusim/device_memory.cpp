#include "src/gpusim/device_memory.h"

#include <sys/mman.h>

#include <algorithm>

#include "src/util/check.h"

namespace minuet {

namespace {

// The top commits in steps of this many bytes, so a growing arena calls
// mprotect rarely.
constexpr uint64_t kCommitStep = uint64_t{2} << 20;

uint64_t RoundUp(uint64_t value, uint64_t step) { return (value + step - 1) / step * step; }

}  // namespace

DeviceMemory::DeviceMemory() {
  void* p = ::mmap(nullptr, kReserveBytes, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                   -1, 0);
  MINUET_CHECK(p != MAP_FAILED) << "cannot reserve device address space";
  base_ = static_cast<std::byte*>(p);
}

DeviceMemory::~DeviceMemory() {
  MINUET_CHECK_EQ(in_use_, 0u) << "device memory destroyed with live allocations";
  ::munmap(base_, kReserveBytes);
}

void* DeviceMemory::Allocate(size_t bytes) {
  const uint64_t size = RoundUp(std::max<uint64_t>(bytes, 1), kGranularity);
  uint64_t offset;
  auto fit = free_by_size_.lower_bound({size, 0});
  if (fit != free_by_size_.end()) {
    const auto [range_size, range_offset] = *fit;
    EraseFree(free_by_offset_.find(range_offset));
    if (range_size > size) {
      InsertFree(range_offset + size, range_size - size);
    }
    offset = range_offset;
  } else {
    offset = top_;
    MINUET_CHECK_LE(size, kReserveBytes - top_) << "device memory exhausted";
    top_ += size;
    if (top_ > committed_) {
      const uint64_t target = std::min(RoundUp(top_, kCommitStep), kReserveBytes);
      MINUET_CHECK_EQ(::mprotect(base_ + committed_, target - committed_, PROT_READ | PROT_WRITE),
                      0)
          << "cannot commit device memory";
      committed_ = target;
    }
    high_water_ = std::max(high_water_, top_);
  }
  in_use_ += size;
  return base_ + offset;
}

void DeviceMemory::Deallocate(void* ptr, size_t bytes) {
  uint64_t offset = static_cast<uint64_t>(static_cast<std::byte*>(ptr) - base_);
  uint64_t size = RoundUp(std::max<uint64_t>(bytes, 1), kGranularity);
  MINUET_DCHECK(offset + size <= top_);
  in_use_ -= size;
  if (auto next = free_by_offset_.find(offset + size); next != free_by_offset_.end()) {
    size += next->second;
    EraseFree(next);
  }
  if (auto prev = free_by_offset_.lower_bound(offset); prev != free_by_offset_.begin()) {
    --prev;
    if (prev->first + prev->second == offset) {
      offset = prev->first;
      size += prev->second;
      EraseFree(prev);
    }
  }
  if (offset + size != top_) {
    InsertFree(offset, size);
    return;
  }
  top_ = offset;
  if (top_ == 0) {
    // Empty again: hand the pages back, so an idle device (an engine between
    // stateless runs) holds no host memory.
    ::madvise(base_, committed_, MADV_DONTNEED);
  }
}

void DeviceMemory::InsertFree(uint64_t offset, uint64_t size) {
  free_by_offset_.emplace(offset, size);
  free_by_size_.emplace(size, offset);
}

void DeviceMemory::EraseFree(std::map<uint64_t, uint64_t>::iterator it) {
  free_by_size_.erase({it->second, it->first});
  free_by_offset_.erase(it);
}

}  // namespace minuet
