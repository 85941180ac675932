// Anatomy of the Map step: builds the same kernel map with every available
// builder and prints what each one did — kernels launched, bytes moved, L2
// behaviour, comparisons — so the algorithmic contrast of Sections 3 and 5.1
// is visible on a single cloud.
#include <cstdio>
#include <memory>
#include <vector>

#include "src/core/point_cloud.h"
#include "src/core/weight_offsets.h"
#include "src/data/generators.h"
#include "src/gpusim/device_config.h"
#include "src/map/binary_baselines.h"
#include "src/map/hash_map.h"
#include "src/map/minuet_map.h"

using namespace minuet;

int main() {
  auto coords = GenerateCoords(DatasetKind::kSem3d, 150000, /*seed=*/4);
  auto keys = PackCoords(coords);
  auto offsets = MakeWeightOffsets(3, 1);
  std::printf("cloud: %lld points; %lld queries (K^3 x |Q|)\n",
              static_cast<long long>(keys.size()),
              static_cast<long long>(keys.size() * offsets.size()));


  struct Entry {
    const char* label;
    std::unique_ptr<MapBuilderBase> builder;
  };
  std::vector<Entry> builders;
  builders.push_back({"Minuet (SS + DTBS)", std::make_unique<MinuetMapBuilder>()});
  {
    MinuetMapConfig no_dtbs;
    no_dtbs.double_traversal = false;
    builders.push_back({"Minuet (SS only)", std::make_unique<MinuetMapBuilder>(no_dtbs)});
  }
  builders.push_back(
      {"cuckoo hash (TorchSparse)", std::make_unique<HashMapBuilder>(HashTableKind::kCuckoo)});
  builders.push_back({"linear hash (MinkowskiEng)",
                      std::make_unique<HashMapBuilder>(HashTableKind::kLinearProbe)});
  builders.push_back(
      {"spatial hash (Open3D)", std::make_unique<HashMapBuilder>(HashTableKind::kSpatial)});
  builders.push_back({"naive binary search", std::make_unique<NaiveBinaryMapBuilder>()});
  builders.push_back({"full query sorting", std::make_unique<FullSortMapBuilder>()});
  builders.push_back({"merge path", std::make_unique<MergePathMapBuilder>()});

  std::printf("\n%-28s %10s %9s %9s %8s %12s %12s\n", "builder", "query(ms)", "launches",
              "GB moved", "L2 hit", "comparisons", "entries");
  int64_t reference_entries = -1;
  for (auto& entry : builders) {
    // Each builder runs on a fresh device; the keys are copied into its memory.
    Device device(MakeRtx3090());
    const DeviceVector<uint64_t> device_keys = ToDevice(device.memory(), keys);
    MapBuildInput input;
    input.source_keys = device_keys;
    input.output_keys = device_keys;
    input.offsets = offsets;
    input.source_sorted = true;
    input.output_sorted = true;
    MapBuildResult result = entry.builder->Build(device, input);
    int64_t entries = 0;
    for (uint32_t p : result.table.positions) {
      entries += (p != kNoMatch) ? 1 : 0;
    }
    if (reference_entries < 0) {
      reference_entries = entries;
    }
    std::printf("%-28s %10.3f %9lld %9.2f %7.1f%% %12llu %12lld%s\n", entry.label,
                device.config().CyclesToMillis(result.query_stats.cycles),
                static_cast<long long>(result.query_stats.num_launches),
                static_cast<double>(result.query_stats.global_bytes_read +
                                    result.query_stats.global_bytes_written) /
                    1e9,
                100.0 * result.lookup_stats.L2HitRatio(),
                static_cast<unsigned long long>(result.comparisons),
                static_cast<long long>(entries),
                entries == reference_entries ? "" : "  <-- MISMATCH");
  }
  std::printf("\nAll builders produce identical kernel maps; they differ only in how they "
              "search.\n");
  return 0;
}
