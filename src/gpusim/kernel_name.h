// Process-wide kernel-name interning.
//
// Every simulated kernel is launched under a stable structured name
// ("phase/step/kernel", e.g. "map/query/ss_search"). Before interning,
// Device::Record keyed a std::map by that string on every launch — a string
// compare chain on the hottest control path in the simulator. A KernelId is
// the name resolved once to a small dense integer; hot call sites cache the
// id in a function-local static and launch by id, and Device aggregates into
// a vector indexed by it.
//
// The registry is append-only and process-wide (ids are shared across
// Devices, which is what lets a call site cache one id and launch on any
// device). Interned names are stored with stable addresses, so name() stays
// valid forever. Intern, name() and Count() take one mutex, so devices on
// different threads (Autotune's forks) may launch and intern concurrently;
// the lock is uncontended in practice because call sites cache their ids.
// Ids then depend on which thread interned first, so no output may be
// ordered by id.
#ifndef SRC_GPUSIM_KERNEL_NAME_H_
#define SRC_GPUSIM_KERNEL_NAME_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace minuet {

class KernelId {
 public:
  // Resolves `name` to its id, registering it on first use. O(1) amortised
  // (one hash of the string); call sites that launch repeatedly should cache
  // the result: `static const KernelId kKernel = KernelId::Intern("...");`
  static KernelId Intern(std::string_view name);

  // Number of distinct names interned so far. Ids are dense in [0, Count()).
  static size_t Count();

  // The interned name. Stable storage — the reference never dangles.
  const std::string& name() const;

  uint32_t index() const { return index_; }

  friend bool operator==(KernelId a, KernelId b) { return a.index_ == b.index_; }
  friend bool operator!=(KernelId a, KernelId b) { return a.index_ != b.index_; }

 private:
  explicit KernelId(uint32_t index) : index_(index) {}

  uint32_t index_;
};

}  // namespace minuet

#endif  // SRC_GPUSIM_KERNEL_NAME_H_
