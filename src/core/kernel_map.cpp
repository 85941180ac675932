#include "src/core/kernel_map.h"

#include "src/util/check.h"

namespace minuet {

int64_t KernelMap::TotalEntries() const {
  int64_t total = 0;
  for (const auto& list : entries) {
    total += static_cast<int64_t>(list.size());
  }
  return total;
}

std::vector<int64_t> KernelMap::EntryCounts() const {
  std::vector<int64_t> counts;
  counts.reserve(entries.size());
  for (const auto& list : entries) {
    counts.push_back(static_cast<int64_t>(list.size()));
  }
  return counts;
}

KernelMap CompactPositionTable(const MapPositionTable& table, const std::vector<Coord3>& offsets,
                               DeviceMemory* memory) {
  MINUET_CHECK_EQ(table.num_offsets, static_cast<int64_t>(offsets.size()));
  KernelMap map;
  map.offsets = offsets;
  map.entries.assign(offsets.size(), DeviceVector<MapPair>(memory));
  for (int64_t k = 0; k < table.num_offsets; ++k) {
    auto& list = map.entries[static_cast<size_t>(k)];
    // Sized exactly up front: one device allocation per offset.
    int64_t matches = 0;
    for (int64_t i = 0; i < table.num_outputs; ++i) {
      matches += table.At(k, i) != kNoMatch ? 1 : 0;
    }
    list.reserve(static_cast<size_t>(matches));
    for (int64_t i = 0; i < table.num_outputs; ++i) {
      uint32_t input_index = table.At(k, i);
      if (input_index != kNoMatch) {
        list.push_back(MapPair{input_index, static_cast<uint32_t>(i)});
      }
    }
  }
  return map;
}

}  // namespace minuet
