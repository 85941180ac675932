#include "src/map/binary_baselines.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/gpusort/radix_sort.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace minuet {

namespace {

constexpr int64_t kItemsPerBlock = 1024;
constexpr int kThreads = 128;

// Sorts the source array (charging the radix sort unless already sorted) and
// returns spans plus optional original-index values.
struct SortedSource {
  DeviceVector<uint64_t> keys_storage;
  DeviceVector<uint32_t> vals_storage;
  std::span<const uint64_t> keys;
  const uint32_t* vals = nullptr;  // nullptr: value == position
};

SortedSource PrepareSource(Device& device, const MapBuildInput& input, KernelStats& build_stats) {
  SortedSource src;
  if (input.source_sorted) {
    src.keys = input.source_keys;
    return src;
  }
  src.keys_storage = ToDevice(device.memory(), input.source_keys);
  src.vals_storage = DeviceVector<uint32_t>(input.source_keys.size(), device.memory());
  std::iota(src.vals_storage.begin(), src.vals_storage.end(), 0u);
  build_stats += RadixSortPairs(device, src.keys_storage, src.vals_storage, 0, 63).kernels;
  src.keys = src.keys_storage;
  src.vals = src.vals_storage.data();
  return src;
}

}  // namespace

NaiveBinaryMapBuilder::NaiveBinaryMapBuilder(bool shuffle_queries)
    : shuffle_queries_(shuffle_queries) {}

std::string NaiveBinaryMapBuilder::name() const {
  return shuffle_queries_ ? "naive_binary" : "naive_binary_ordered";
}

MapBuildResult NaiveBinaryMapBuilder::Build(Device& device, const MapBuildInput& input) {
  const int64_t n_out = static_cast<int64_t>(input.output_keys.size());
  const int64_t n_off = static_cast<int64_t>(input.offsets.size());
  const int64_t n_src = static_cast<int64_t>(input.source_keys.size());

  MapBuildResult result;
  result.table.num_offsets = n_off;
  result.table.num_outputs = n_out;
  result.table.positions =
      DeviceVector<uint32_t>(static_cast<size_t>(n_off * n_out), kNoMatch, device.memory());
  if (n_src == 0 || n_out == 0 || n_off == 0) {
    return result;
  }
  const bool safe_queries = QueriesStayInLattice(input.output_keys, input.offsets);

  SortedSource src = PrepareSource(device, input, result.build_stats);

  // Query visit order: a deterministic shuffle models unsorted coordinates.
  DeviceVector<uint32_t> order(static_cast<size_t>(n_out), device.memory());
  std::iota(order.begin(), order.end(), 0u);
  if (shuffle_queries_) {
    Pcg32 rng(0x5eed);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(static_cast<uint32_t>(i))]);
    }
  }

  uint64_t comparisons = 0;
  uint32_t* positions = result.table.positions.data();
  for (int64_t k = 0; k < n_off; ++k) {
    uint64_t delta = PackDelta(input.offsets[static_cast<size_t>(k)]);
    const int64_t blocks = (n_out + kItemsPerBlock - 1) / kItemsPerBlock;
    static const KernelId kNaiveBinarySearch = KernelId::Intern("map/query/naive_binary_search");
    KernelStats lookup = device.Launch(
        kNaiveBinarySearch, LaunchDims{blocks, kThreads, 0}, [&](BlockCtx& ctx) {
          int64_t begin = ctx.block_index() * kItemsPerBlock;
          int64_t end = std::min<int64_t>(begin + kItemsPerBlock, n_out);
          ctx.GlobalRead(&order[static_cast<size_t>(begin)],
                         static_cast<size_t>(end - begin) * sizeof(uint32_t));
          for (int64_t t = begin; t < end; ++t) {
            int64_t i = order[static_cast<size_t>(t)];
            ctx.GlobalRead(&input.output_keys[static_cast<size_t>(i)], sizeof(uint64_t));
            // Boundary sums that would wrap across key fields become the
            // sentinel, which is greater than every valid key: the search
            // lands past the last candidate and reports a miss.
            uint64_t query =
                safe_queries
                    ? input.output_keys[static_cast<size_t>(i)] + delta
                    : MakeQueryKey(input.output_keys[static_cast<size_t>(i)],
                                   input.offsets[static_cast<size_t>(k)]);
            int64_t lo = 0;
            int64_t hi = n_src;
            while (lo < hi) {
              int64_t mid = lo + (hi - lo) / 2;
              ctx.GlobalRead(&src.keys[static_cast<size_t>(mid)], sizeof(uint64_t));
              ++comparisons;
              if (src.keys[static_cast<size_t>(mid)] < query) {
                lo = mid + 1;
              } else {
                hi = mid;
              }
            }
            ctx.Compute(20);
            if (lo < n_src && src.keys[static_cast<size_t>(lo)] == query) {
              uint32_t value =
                  src.vals ? src.vals[static_cast<size_t>(lo)] : static_cast<uint32_t>(lo);
              if (src.vals != nullptr) {
                ctx.GlobalRead(&src.vals[static_cast<size_t>(lo)], sizeof(uint32_t));
              }
              positions[k * n_out + i] = value;
              ctx.GlobalWrite(&positions[k * n_out + i], sizeof(uint32_t));
            }
          }
        });
    result.query_stats += lookup;
    result.lookup_stats += lookup;
  }
  result.comparisons = comparisons;
  return result;
}

MapBuildResult FullSortMapBuilder::Build(Device& device, const MapBuildInput& input) {
  const int64_t n_out = static_cast<int64_t>(input.output_keys.size());
  const int64_t n_off = static_cast<int64_t>(input.offsets.size());
  const int64_t n_src = static_cast<int64_t>(input.source_keys.size());

  MapBuildResult result;
  result.table.num_offsets = n_off;
  result.table.num_outputs = n_out;
  result.table.positions =
      DeviceVector<uint32_t>(static_cast<size_t>(n_off * n_out), kNoMatch, device.memory());
  if (n_src == 0 || n_out == 0 || n_off == 0) {
    return result;
  }
  const bool safe_queries = QueriesStayInLattice(input.output_keys, input.offsets);

  SortedSource src = PrepareSource(device, input, result.build_stats);

  // Materialise the full K^3|Q| query array (the memory cost the paper calls
  // out), tagged with (offset, output) so results can be scattered back.
  const int64_t total = n_off * n_out;
  DeviceVector<uint64_t> queries(static_cast<size_t>(total), device.memory());
  DeviceVector<uint32_t> tags(static_cast<size_t>(total), device.memory());
  {
    const int64_t blocks = (total + kItemsPerBlock - 1) / kItemsPerBlock;
    static const KernelId kFullSortMakeQueries = KernelId::Intern("map/query/full_sort_make_queries");
    result.query_stats += device.Launch(
        kFullSortMakeQueries, LaunchDims{blocks, kThreads, 0}, [&](BlockCtx& ctx) {
          int64_t begin = ctx.block_index() * kItemsPerBlock;
          int64_t end = std::min<int64_t>(begin + kItemsPerBlock, total);
          for (int64_t t = begin; t < end; ++t) {
            int64_t k = t / n_out;
            int64_t i = t % n_out;
            // Wrapping boundary sums become the sentinel; it sorts past every
            // valid key and never equals a source key, so those queries miss.
            queries[static_cast<size_t>(t)] =
                safe_queries ? input.output_keys[static_cast<size_t>(i)] +
                                   PackDelta(input.offsets[static_cast<size_t>(k)])
                             : MakeQueryKey(input.output_keys[static_cast<size_t>(i)],
                                            input.offsets[static_cast<size_t>(k)]);
            tags[static_cast<size_t>(t)] = static_cast<uint32_t>(t);
          }
          ctx.GlobalRead(&input.output_keys[static_cast<size_t>(begin % n_out)],
                         std::min<size_t>(static_cast<size_t>(end - begin), 512) *
                             sizeof(uint64_t));
          ctx.Compute(static_cast<uint64_t>(end - begin) * 2);
          ctx.GlobalWrite(&queries[static_cast<size_t>(begin)],
                          static_cast<size_t>(end - begin) * sizeof(uint64_t));
          ctx.GlobalWrite(&tags[static_cast<size_t>(begin)],
                          static_cast<size_t>(end - begin) * sizeof(uint32_t));
        });
  }

  // Sort the whole query array — this is what makes full query sorting lose.
  result.query_stats += RadixSortPairs(device, queries, tags, 0, 63).kernels;

  // Sorted queries through a plain binary search over the source array.
  uint64_t comparisons = 0;
  uint32_t* positions = result.table.positions.data();
  {
    const int64_t blocks = (total + kItemsPerBlock - 1) / kItemsPerBlock;
    static const KernelId kFullSortSearch = KernelId::Intern("map/query/full_sort_search");
    KernelStats lookup = device.Launch(
        kFullSortSearch, LaunchDims{blocks, kThreads, 0}, [&](BlockCtx& ctx) {
          int64_t begin = ctx.block_index() * kItemsPerBlock;
          int64_t end = std::min<int64_t>(begin + kItemsPerBlock, total);
          ctx.GlobalRead(&queries[static_cast<size_t>(begin)],
                         static_cast<size_t>(end - begin) * sizeof(uint64_t));
          for (int64_t t = begin; t < end; ++t) {
            uint64_t query = queries[static_cast<size_t>(t)];
            int64_t lo = 0;
            int64_t hi = n_src;
            while (lo < hi) {
              int64_t mid = lo + (hi - lo) / 2;
              ctx.GlobalRead(&src.keys[static_cast<size_t>(mid)], sizeof(uint64_t));
              ++comparisons;
              if (src.keys[static_cast<size_t>(mid)] < query) {
                lo = mid + 1;
              } else {
                hi = mid;
              }
            }
            ctx.Compute(20);
            if (lo < n_src && src.keys[static_cast<size_t>(lo)] == query) {
              uint32_t value =
                  src.vals ? src.vals[static_cast<size_t>(lo)] : static_cast<uint32_t>(lo);
              if (src.vals != nullptr) {
                ctx.GlobalRead(&src.vals[static_cast<size_t>(lo)], sizeof(uint32_t));
              }
              ctx.GlobalRead(&tags[static_cast<size_t>(t)], sizeof(uint32_t));
              positions[tags[static_cast<size_t>(t)]] = value;
              ctx.GlobalWrite(&positions[tags[static_cast<size_t>(t)]], sizeof(uint32_t));
            }
          }
        });
    result.query_stats += lookup;
    result.lookup_stats = lookup;
  }
  result.comparisons = comparisons;
  return result;
}

MergePathMapBuilder::MergePathMapBuilder(int64_t diagonal_block)
    : diagonal_block_(diagonal_block) {
  MINUET_CHECK_GE(diagonal_block, 2);
}

MapBuildResult MergePathMapBuilder::Build(Device& device, const MapBuildInput& input) {
  const int64_t n_out = static_cast<int64_t>(input.output_keys.size());
  const int64_t n_off = static_cast<int64_t>(input.offsets.size());
  const int64_t n_src = static_cast<int64_t>(input.source_keys.size());

  MapBuildResult result;
  result.table.num_offsets = n_off;
  result.table.num_outputs = n_out;
  result.table.positions =
      DeviceVector<uint32_t>(static_cast<size_t>(n_off * n_out), kNoMatch, device.memory());
  if (n_src == 0 || n_out == 0 || n_off == 0) {
    return result;
  }
  const bool safe_queries = QueriesStayInLattice(input.output_keys, input.offsets);

  SortedSource src = PrepareSource(device, input, result.build_stats);
  // Merge path needs sorted queries; sort a copy of the outputs if required.
  DeviceVector<uint64_t> out_storage(device.memory());
  DeviceVector<uint32_t> out_perm_storage(device.memory());
  std::span<const uint64_t> out_keys = input.output_keys;
  const uint32_t* out_perm = nullptr;
  if (!input.output_sorted) {
    out_storage.assign(input.output_keys.begin(), input.output_keys.end());
    out_perm_storage.resize(static_cast<size_t>(n_out));
    std::iota(out_perm_storage.begin(), out_perm_storage.end(), 0u);
    result.build_stats += RadixSortCoordPairs(device, out_storage, out_perm_storage).kernels;
    out_keys = out_storage;
    out_perm = out_perm_storage.data();
  }

  uint64_t comparisons = 0;
  uint32_t* positions = result.table.positions.data();
  const int64_t total_diag = n_src + n_out;
  const int64_t blocks_per_segment = (total_diag + diagonal_block_ - 1) / diagonal_block_;

  for (int64_t k = 0; k < n_off; ++k) {
    const Coord3 offset = input.offsets[static_cast<size_t>(k)];
    uint64_t delta = PackDelta(offset);
    // query(i) = out_keys[i] + delta, evaluated on the fly. When boundary
    // sums could wrap across key fields, the per-axis clamped form keeps the
    // query sequence monotone (so the merge partitioning stays valid) and
    // matches are additionally gated on the true sum staying in range.
    auto query_at = [&](int64_t i, bool* valid) {
      if (safe_queries) {
        if (valid != nullptr) {
          *valid = true;
        }
        return out_keys[static_cast<size_t>(i)] + delta;
      }
      return ClampedQueryKey(out_keys[static_cast<size_t>(i)], offset, valid);
    };

    static const KernelId kMergePath = KernelId::Intern("map/query/merge_path");
    KernelStats lookup = device.Launch(
        kMergePath, LaunchDims{blocks_per_segment, 128, 0}, [&](BlockCtx& ctx) {
          // Diagonal binary search: find (si, qi) with si + qi = d0 such that
          // the merge is correctly partitioned.
          int64_t d0 = ctx.block_index() * diagonal_block_;
          int64_t d1 = std::min(d0 + diagonal_block_, total_diag);
          int64_t lo = std::max<int64_t>(0, d0 - n_out);
          int64_t hi = std::min(d0, n_src);
          while (lo < hi) {
            int64_t si = lo + (hi - lo) / 2;
            int64_t qi = d0 - si;
            ctx.GlobalRead(&src.keys[static_cast<size_t>(si)], sizeof(uint64_t));
            if (qi > 0) {
              ctx.GlobalRead(&out_keys[static_cast<size_t>(qi - 1)], sizeof(uint64_t));
            }
            ++comparisons;
            if (qi > 0 && src.keys[static_cast<size_t>(si)] < query_at(qi - 1, nullptr)) {
              lo = si + 1;
            } else {
              hi = si;
            }
          }
          int64_t si = lo;
          int64_t qi = d0 - si;
          ctx.Compute(32);

          // Linear merge across this block's diagonal range, streaming both
          // slices once.
          int64_t src_read_begin = si;
          int64_t q_read_begin = qi;
          for (int64_t d = d0; d < d1 && (si < n_src || qi < n_out);) {
            ++comparisons;
            bool valid = true;
            uint64_t query = qi < n_out ? query_at(qi, &valid) : 0;
            if (qi >= n_out || (si < n_src && src.keys[static_cast<size_t>(si)] < query)) {
              ++si;
            } else {
              if (valid && si < n_src && src.keys[static_cast<size_t>(si)] == query) {
                uint32_t value =
                    src.vals ? src.vals[static_cast<size_t>(si)] : static_cast<uint32_t>(si);
                if (src.vals != nullptr) {
                  ctx.GlobalRead(&src.vals[static_cast<size_t>(si)], sizeof(uint32_t));
                }
                int64_t out_index = out_perm ? out_perm[static_cast<size_t>(qi)] : qi;
                if (out_perm != nullptr) {
                  ctx.GlobalRead(&out_perm[static_cast<size_t>(qi)], sizeof(uint32_t));
                }
                positions[k * n_out + out_index] = value;
                ctx.GlobalWrite(&positions[k * n_out + out_index], sizeof(uint32_t));
              }
              ++qi;
            }
            ++d;
          }
          if (si > src_read_begin) {
            ctx.GlobalRead(&src.keys[static_cast<size_t>(src_read_begin)],
                           static_cast<size_t>(si - src_read_begin) * sizeof(uint64_t));
          }
          if (qi > q_read_begin) {
            ctx.GlobalRead(&out_keys[static_cast<size_t>(q_read_begin)],
                           static_cast<size_t>(qi - q_read_begin) * sizeof(uint64_t));
          }
          ctx.Compute(static_cast<uint64_t>(d1 - d0) * 3);
        });
    result.query_stats += lookup;
    result.lookup_stats += lookup;
  }
  result.comparisons = comparisons;
  return result;
}

}  // namespace minuet
