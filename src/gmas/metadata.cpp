#include "src/gmas/metadata.h"

#include <algorithm>

#include "src/util/check.h"

namespace minuet {

MetadataTables BuildMetadataTables(Device& device, const KernelMap& map,
                                   const GroupingPlan& plan, int64_t num_inputs,
                                   int64_t num_outputs, KernelStats* stats) {
  MINUET_CHECK_EQ(map.num_offsets(), static_cast<int64_t>(plan.buffer_base.size()));
  MetadataTables tables;
  tables.num_offsets = map.num_offsets();
  tables.num_inputs = num_inputs;
  tables.num_outputs = num_outputs;
  tables.buffer_rows = plan.buffer_rows;
  tables.imt = DeviceVector<uint32_t>(static_cast<size_t>(tables.num_offsets * num_inputs),
                                      kNoMatch, device.memory());
  tables.omt = DeviceVector<uint32_t>(static_cast<size_t>(tables.num_offsets * num_outputs),
                                      kNoMatch, device.memory());

  const int64_t total_entries = map.TotalEntries();
  constexpr int64_t kEntriesPerBlock = 1024;
  const int64_t blocks = std::max<int64_t>(1, (total_entries + kEntriesPerBlock - 1) / kEntriesPerBlock);

  // Flatten entry ranges so one launch covers all offsets.
  struct Range {
    int64_t first_entry;
    uint32_t offset_index;
  };
  std::vector<Range> ranges;
  int64_t running = 0;
  for (int64_t k = 0; k < map.num_offsets(); ++k) {
    ranges.push_back(Range{running, static_cast<uint32_t>(k)});
    running += static_cast<int64_t>(map.entries[static_cast<size_t>(k)].size());
  }

  static const KernelId kBuildTables = KernelId::Intern("gmas/metadata/build_tables");
  KernelStats launch = device.Launch(
      kBuildTables, LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
        int64_t begin = ctx.block_index() * kEntriesPerBlock;
        int64_t end = std::min(begin + kEntriesPerBlock, total_entries);
        if (begin >= end) {
          return;
        }
        // Locate the offset containing `begin`.
        size_t r = static_cast<size_t>(
            std::upper_bound(ranges.begin(), ranges.end(), begin,
                             [](int64_t v, const Range& range) { return v < range.first_entry; }) -
            ranges.begin()) - 1;
        for (int64_t e = begin; e < end; ++e) {
          while (r + 1 < ranges.size() && e >= ranges[r + 1].first_entry) {
            ++r;
          }
          uint32_t k = ranges[r].offset_index;
          int64_t local = e - ranges[r].first_entry;
          const MapPair& pair = map.entries[k][static_cast<size_t>(local)];
          ctx.GlobalRead(&map.entries[k][static_cast<size_t>(local)], sizeof(MapPair));
          uint32_t slot = static_cast<uint32_t>(plan.buffer_base[k] + local);
          tables.imt[static_cast<size_t>(k) * static_cast<size_t>(num_inputs) +
                     pair.input_index] = slot;
          tables.omt[static_cast<size_t>(k) * static_cast<size_t>(num_outputs) +
                     pair.output_index] = slot;
          ctx.GlobalWrite(&tables.imt[static_cast<size_t>(k) * static_cast<size_t>(num_inputs) +
                                      pair.input_index],
                          sizeof(uint32_t));
          ctx.GlobalWrite(&tables.omt[static_cast<size_t>(k) * static_cast<size_t>(num_outputs) +
                                      pair.output_index],
                          sizeof(uint32_t));
          ctx.Compute(4);
        }
      });
  if (stats != nullptr) {
    *stats += launch;
  }
  return tables;
}

}  // namespace minuet
