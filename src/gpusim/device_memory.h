// The simulated device's address space.
//
// Every Device owns one DeviceMemory: a contiguous range reserved up front
// (PROT_NONE, committed as the top grows), from which every buffer a kernel
// touches is allocated. A device address is `ptr - base()`, and the cache
// simulators key on device addresses only, so simulated statistics depend on
// the program's sequence of device allocations and nothing else — not on the
// host heap, ASLR, or which other Devices exist in the process.
//
// Placement is best-fit over free ranges at 256-byte granularity, lowest
// address on ties, splitting a larger range and coalescing neighbours on
// free. A range freed at the top lowers the top again; an arena that empties
// returns its pages to the OS.
//
// Containers hold device storage through DeviceAllocator (DeviceVector<T>).
// The allocator travels with the data: copies and moves of a DeviceVector
// stay in the same memory. A default-constructed allocator allocates from the
// host heap; such storage is ordinary host memory that kernels cannot read
// (BlockCtx::GlobalRead CHECK-fails outside the arena). ToDevice() copies
// host data in.
//
// Like std::allocator, DeviceAllocator value-initialises (zeroes, for
// arithmetic T) the elements a container creates without a value:
// vector(n), resize(n). DeviceAllocator::Uninitialized(memory) makes an
// allocator whose containers skip that zero fill, for scratch buffers whose
// every element is defined before it is read; untouched arena pages then cost
// no host memory either. Elements given a value (vector(n, v), assign,
// copies) are written either way.
//
// Every allocation must be freed before its DeviceMemory is destroyed; the
// destructor CHECKs it. Not thread-safe: one device, one thread.
#ifndef SRC_GPUSIM_DEVICE_MEMORY_H_
#define SRC_GPUSIM_DEVICE_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <ranges>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

namespace minuet {

class DeviceMemory {
 public:
  // Placement granularity, and therefore the alignment of every buffer.
  static constexpr uint64_t kGranularity = 256;
  // Address space reserved per device. Only what the top has reached is
  // committed; the rest costs no memory.
  static constexpr uint64_t kReserveBytes = uint64_t{64} << 30;

  DeviceMemory();
  ~DeviceMemory();
  DeviceMemory(const DeviceMemory&) = delete;
  DeviceMemory& operator=(const DeviceMemory&) = delete;

  void* Allocate(size_t bytes);
  void Deallocate(void* ptr, size_t bytes);

  uintptr_t base() const { return reinterpret_cast<uintptr_t>(base_); }
  // Bytes currently allocated (at placement granularity).
  uint64_t bytes_in_use() const { return in_use_; }
  // Highest top the arena ever reached: the device footprint. A serving loop
  // that allocates nothing new per run stops growing it.
  uint64_t high_water() const { return high_water_; }

 private:
  void InsertFree(uint64_t offset, uint64_t size);
  void EraseFree(std::map<uint64_t, uint64_t>::iterator it);

  std::byte* base_ = nullptr;
  uint64_t top_ = 0;        // end of the highest allocated range
  uint64_t committed_ = 0;  // bytes from base_ that are read-write
  uint64_t high_water_ = 0;
  uint64_t in_use_ = 0;
  // Free ranges below top_, twice indexed: by offset for coalescing, by
  // (size, offset) for best-fit with the lowest address winning ties.
  std::map<uint64_t, uint64_t> free_by_offset_;
  std::set<std::pair<uint64_t, uint64_t>> free_by_size_;
};

template <typename T>
class DeviceAllocator {
 public:
  using value_type = T;
  // The memory is part of a buffer's value: assignment and swap carry it.
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  DeviceAllocator() = default;
  // Implicit, like std::pmr::polymorphic_allocator's: DeviceVector<T>(n, device.memory()).
  DeviceAllocator(DeviceMemory* memory) : memory_(memory) {}  // NOLINT(google-explicit-constructor)
  template <typename U>
  DeviceAllocator(const DeviceAllocator<U>& other)
      : memory_(other.memory()), uninitialized_(other.uninitialized()) {}

  static DeviceAllocator Uninitialized(DeviceMemory* memory) {
    DeviceAllocator allocator(memory);
    allocator.uninitialized_ = true;
    return allocator;
  }

  T* allocate(size_t n) {
    if (memory_ == nullptr) {
      return std::allocator<T>().allocate(n);
    }
    return static_cast<T*>(memory_->Allocate(n * sizeof(T)));
  }
  void deallocate(T* ptr, size_t n) {
    if (memory_ == nullptr) {
      std::allocator<T>().deallocate(ptr, n);
    } else {
      memory_->Deallocate(ptr, n * sizeof(T));
    }
  }

  template <typename U>
  void construct(U* ptr) noexcept(std::is_nothrow_default_constructible_v<U>) {
    if (uninitialized_) {
      ::new (static_cast<void*>(ptr)) U;
    } else {
      ::new (static_cast<void*>(ptr)) U();
    }
  }
  template <typename U, typename... Args>
  void construct(U* ptr, Args&&... args) noexcept(std::is_nothrow_constructible_v<U, Args...>) {
    ::new (static_cast<void*>(ptr)) U(std::forward<Args>(args)...);
  }

  // Null for host-heap storage.
  DeviceMemory* memory() const { return memory_; }
  bool uninitialized() const { return uninitialized_; }

  template <typename U>
  friend bool operator==(const DeviceAllocator& a, const DeviceAllocator<U>& b) {
    return a.memory() == b.memory();
  }

 private:
  DeviceMemory* memory_ = nullptr;
  bool uninitialized_ = false;
};

template <typename T>
using DeviceVector = std::vector<T, DeviceAllocator<T>>;

// Copies `host` into `memory` (the host-to-device boundary; null copies to the
// host heap).
template <std::ranges::input_range R>
DeviceVector<std::ranges::range_value_t<R>> ToDevice(DeviceMemory* memory, const R& host) {
  return DeviceVector<std::ranges::range_value_t<R>>(std::ranges::begin(host),
                                                     std::ranges::end(host), memory);
}

}  // namespace minuet

#endif  // SRC_GPUSIM_DEVICE_MEMORY_H_
