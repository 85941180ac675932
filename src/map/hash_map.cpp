#include "src/map/hash_map.h"

#include <algorithm>
#include <vector>

#include "src/hashtable/cuckoo.h"
#include "src/hashtable/linear_probe.h"
#include "src/hashtable/spatial.h"
#include "src/util/check.h"

namespace minuet {

const char* HashTableKindName(HashTableKind kind) {
  switch (kind) {
    case HashTableKind::kLinearProbe:
      return "hash_linear";
    case HashTableKind::kCuckoo:
      return "hash_cuckoo";
    case HashTableKind::kSpatial:
      return "hash_spatial";
  }
  return "hash_unknown";
}

KernelStats BuildEngineHashTable(Device& device, HashTableKind kind,
                                 std::span<const uint64_t> keys,
                                 std::unique_ptr<HashTableBase>* out_table) {
  std::unique_ptr<HashTableBase> table;
  switch (kind) {
    case HashTableKind::kLinearProbe:
      table = std::make_unique<LinearProbeHashTable>();
      break;
    case HashTableKind::kCuckoo:
      table = std::make_unique<CuckooHashTable>();
      break;
    case HashTableKind::kSpatial:
      table = std::make_unique<SpatialHashTable>();
      break;
  }
  KernelStats stats = table->Build(device, keys);

  // Engine-specific extra build work observed in the real systems.
  if (kind == HashTableKind::kLinearProbe) {
    // MinkowskiEngine compacts its coordinate map into field arrays after
    // insertion: one streaming pass over the table.
    const size_t table_bytes = table->MemoryBytes();
    const char* table_base = static_cast<const char*>(table->MemoryBase());
    constexpr size_t kBytesPerBlock = 64 << 10;
    const int64_t blocks = std::max<int64_t>(
        1, static_cast<int64_t>((table_bytes + kBytesPerBlock - 1) / kBytesPerBlock));
    static const KernelId kCompactScan = KernelId::Intern("map/build/compact_scan");
    stats += device.Launch(
        kCompactScan, LaunchDims{blocks, 256, 0}, [&](BlockCtx& ctx) {
          size_t begin = static_cast<size_t>(ctx.block_index()) * kBytesPerBlock;
          size_t end = std::min(begin + kBytesPerBlock, table_bytes);
          if (begin >= end) {
            return;
          }
          ctx.GlobalRead(table_base + begin, end - begin);
          ctx.GlobalWrite(table_base + begin, (end - begin) / 2);
          ctx.Compute((end - begin) / 8);
        });
  } else if (kind == HashTableKind::kCuckoo) {
    // TorchSparse validates the cuckoo build by re-probing every inserted
    // key (insert failures trigger a rebuild with fresh hash functions).
    DeviceVector<uint32_t> check(keys.size(), device.memory());
    stats += table->Query(device, keys, check);
  }
  if (out_table != nullptr) {
    *out_table = std::move(table);
  }
  return stats;
}

HashMapBuilder::HashMapBuilder(HashTableKind kind) : kind_(kind) {}

std::string HashMapBuilder::name() const { return HashTableKindName(kind_); }

MapBuildResult HashMapBuilder::Build(Device& device, const MapBuildInput& input) {
  const int64_t n_out = static_cast<int64_t>(input.output_keys.size());
  const int64_t n_off = static_cast<int64_t>(input.offsets.size());

  MapBuildResult result;
  result.table.num_offsets = n_off;
  result.table.num_outputs = n_out;
  result.table.positions =
      DeviceVector<uint32_t>(static_cast<size_t>(n_off * n_out), kNoMatch, device.memory());
  if (input.source_keys.empty() || n_out == 0 || n_off == 0) {
    return result;
  }
  const bool safe_queries = QueriesStayInLattice(input.output_keys, input.offsets);

  std::unique_ptr<HashTableBase> table;
  result.build_stats = BuildEngineHashTable(device, kind_, input.source_keys, &table);

  // Materialise the full K^3|Q| query array and probe it in ONE kernel, as
  // the real engines do (the query grid then has enough blocks to saturate
  // the device). The result array is exactly the position table: the query
  // for (offset k, output i) sits at k * |Q| + i.
  const int64_t total = n_off * n_out;
  DeviceVector<uint64_t> queries(static_cast<size_t>(total), device.memory());
  {
    const int64_t blocks = (total + kQueriesPerBlock - 1) / kQueriesPerBlock;
    static const KernelId kMakeQueries = KernelId::Intern("map/query/make_queries");
    result.query_stats += device.Launch(
        kMakeQueries, LaunchDims{blocks, kQueryThreads, 0}, [&](BlockCtx& ctx) {
          int64_t begin = ctx.block_index() * kQueriesPerBlock;
          int64_t end = std::min<int64_t>(begin + kQueriesPerBlock, total);
          if (begin >= end) {
            return;
          }
          ctx.GlobalRead(&input.output_keys[static_cast<size_t>(begin % n_out)],
                         std::min<size_t>(static_cast<size_t>(end - begin),
                                          static_cast<size_t>(n_out)) *
                             sizeof(uint64_t));
          for (int64_t t = begin; t < end; ++t) {
            int64_t k = t / n_out;
            int64_t i = t % n_out;
            // Boundary sums that would wrap across key fields become the
            // never-inserted sentinel, so they probe to a miss.
            queries[static_cast<size_t>(t)] =
                safe_queries ? input.output_keys[static_cast<size_t>(i)] +
                                   PackDelta(input.offsets[static_cast<size_t>(k)])
                             : MakeQueryKey(input.output_keys[static_cast<size_t>(i)],
                                            input.offsets[static_cast<size_t>(k)]);
          }
          ctx.Compute(static_cast<uint64_t>(end - begin) * 2);
          ctx.GlobalWrite(&queries[static_cast<size_t>(begin)],
                          static_cast<size_t>(end - begin) * sizeof(uint64_t));
        });
  }
  KernelStats probe = table->Query(device, queries, result.table.positions);
  result.query_stats += probe;
  result.lookup_stats += probe;
  return result;
}

}  // namespace minuet
