// The kernel map M = {(p_j, q_i, delta_k)} (Section 2.2).
//
// Map-step kernels write a dense *position table*: for each (offset k,
// output i) the matching input index, or kNoMatch. The GMaS step consumes the
// compacted per-offset pair lists. Both forms live here so every map builder
// and every engine speak the same types.
#ifndef SRC_CORE_KERNEL_MAP_H_
#define SRC_CORE_KERNEL_MAP_H_

#include <cstdint>
#include <vector>

#include "src/core/coordinate.h"
#include "src/gpusim/device_memory.h"

namespace minuet {

inline constexpr uint32_t kNoMatch = 0xFFFFFFFFu;

struct MapPair {
  uint32_t input_index = 0;
  uint32_t output_index = 0;

  friend bool operator==(const MapPair&, const MapPair&) = default;
};

// Dense query results: positions[k * num_outputs + i] is the input index
// matching output i under offset k, or kNoMatch.
struct MapPositionTable {
  int64_t num_offsets = 0;
  int64_t num_outputs = 0;
  DeviceVector<uint32_t> positions;

  uint32_t At(int64_t offset_index, int64_t output_index) const {
    return positions[static_cast<size_t>(offset_index * num_outputs + output_index)];
  }
};

struct KernelMap {
  std::vector<Coord3> offsets;          // offset order as built
  std::vector<DeviceVector<MapPair>> entries;  // entries[k] for offsets[k]

  int64_t num_offsets() const { return static_cast<int64_t>(offsets.size()); }
  int64_t TotalEntries() const;

  // Per-offset GEMM heights n_k, the quantity GEMM grouping sorts on.
  std::vector<int64_t> EntryCounts() const;
};

// Compacts a position table into per-offset pair lists allocated in `memory`
// (null: the host heap). Pairs within an offset are emitted in ascending
// output_index order.
KernelMap CompactPositionTable(const MapPositionTable& table, const std::vector<Coord3>& offsets,
                               DeviceMemory* memory);

}  // namespace minuet

#endif  // SRC_CORE_KERNEL_MAP_H_
