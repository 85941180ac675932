#include "src/map/minuet_map.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/core/weight_offsets.h"
#include "src/gpusort/radix_sort.h"
#include "src/util/check.h"

namespace minuet {

namespace {

// Work item for the forward kernel: a balanced query block bound to its
// source block.
struct QueryBlockTask {
  uint32_t offset_index = 0;  // original offset index (result row)
  uint32_t source_block = 0;
  uint32_t query_begin = 0;  // indices into the sorted output array
  uint32_t query_end = 0;
};

}  // namespace

int LowerBoundSteps(int64_t n, int64_t r) {
  MINUET_DCHECK(0 <= r && r <= n);
  int steps = 0;
  int64_t lo = 0;
  int64_t hi = n;
  while (lo < hi) {
    int64_t mid = lo + (hi - lo) / 2;
    if (mid < r) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
    ++steps;
  }
  return steps;
}

MinuetMapBuilder::MinuetMapBuilder(const MinuetMapConfig& config) : config_(config) {
  MINUET_CHECK_GE(config.source_block_size, 2);
  MINUET_CHECK_GE(config.query_block_size, 1);
}

std::string MinuetMapBuilder::name() const {
  return config_.double_traversal ? "minuet" : "minuet_no_dtbs";
}

MapBuildResult MinuetMapBuilder::Build(Device& device, const MapBuildInput& input) {
  const int64_t n_src = static_cast<int64_t>(input.source_keys.size());
  const int64_t n_out = static_cast<int64_t>(input.output_keys.size());
  const int64_t n_off = static_cast<int64_t>(input.offsets.size());
  const int64_t block_b = config_.source_block_size;
  const int64_t block_c = config_.query_block_size;

  MapBuildResult result;
  result.table.num_offsets = n_off;
  result.table.num_outputs = n_out;
  result.table.positions =
      DeviceVector<uint32_t>(static_cast<size_t>(n_off * n_out), kNoMatch, device.memory());
  if (n_src == 0 || n_out == 0 || n_off == 0) {
    return result;
  }
  // When the whole output set plus every offset stays inside the lattice the
  // kernels materialise queries with the paper's one 64-bit add; otherwise
  // boundary queries are clamped for search ordering and rejected for match
  // emission (they can have no in-lattice partner).
  const bool safe_queries = QueriesStayInLattice(input.output_keys, input.offsets);

  // --- Build phase: sorted source / output arrays (radix sort via gpusort).
  // When the caller's arrays are already sorted (cross-layer reuse,
  // Section 5.1.1 reasons 3-4), positions are identities and no kernel runs.
  DeviceVector<uint64_t> src_keys_storage(device.memory());
  DeviceVector<uint32_t> src_vals_storage(device.memory());
  std::span<const uint64_t> src_keys = input.source_keys;
  const uint32_t* src_vals = nullptr;
  if (!input.source_sorted) {
    src_keys_storage.assign(input.source_keys.begin(), input.source_keys.end());
    src_vals_storage.resize(static_cast<size_t>(n_src));
    std::iota(src_vals_storage.begin(), src_vals_storage.end(), 0u);
    result.build_stats +=
        RadixSortCoordPairs(device, src_keys_storage, src_vals_storage).kernels;
    src_keys = src_keys_storage;
    src_vals = src_vals_storage.data();
  }
  DeviceVector<uint64_t> out_keys_storage(device.memory());
  DeviceVector<uint32_t> out_perm_storage(device.memory());
  std::span<const uint64_t> out_keys = input.output_keys;
  const uint32_t* out_perm = nullptr;
  if (!input.output_sorted) {
    out_keys_storage.assign(input.output_keys.begin(), input.output_keys.end());
    out_perm_storage.resize(static_cast<size_t>(n_out));
    std::iota(out_perm_storage.begin(), out_perm_storage.end(), 0u);
    result.build_stats +=
        RadixSortCoordPairs(device, out_keys_storage, out_perm_storage).kernels;
    out_keys = out_keys_storage;
    out_perm = out_perm_storage.data();
  }
  MINUET_DCHECK(std::is_sorted(src_keys.begin(), src_keys.end()));
  MINUET_DCHECK(std::is_sorted(out_keys.begin(), out_keys.end()));

  // Weight offsets are sorted once per layer configuration on the host
  // (pre-processing, not in the critical path; Section 5.1.1 reason 1).
  std::vector<uint32_t> offset_order = SortedOffsetPermutation(
      std::vector<Coord3>(input.offsets.begin(), input.offsets.end()));
  std::vector<uint64_t> delta_keys(static_cast<size_t>(n_off));
  for (int64_t k = 0; k < n_off; ++k) {
    delta_keys[static_cast<size_t>(k)] = PackDelta(input.offsets[static_cast<size_t>(k)]);
  }

  uint64_t comparisons = 0;
  uint32_t* positions = result.table.positions.data();

  // On-the-fly query generation (Section 5.1.1): fast path is the raw add.
  auto query_key = [&](uint64_t out_key, uint32_t k, bool* valid) {
    if (safe_queries) {
      if (valid != nullptr) {
        *valid = true;
      }
      return out_key + delta_keys[k];
    }
    return ClampedQueryKey(out_key, input.offsets[k], valid);
  };

  if (!config_.double_traversal) {
    // Ablation path: sorted query segments, but each query binary-searches
    // the whole source array in global memory.
    const int64_t chunk = block_c;
    const int64_t chunks_per_segment = (n_out + chunk - 1) / chunk;
    const int64_t total_blocks = n_off * chunks_per_segment;
    static const KernelId kSsSearch = KernelId::Intern("map/query/ss_search");
    KernelStats lookup = device.Launch(
        kSsSearch, LaunchDims{total_blocks, kThreadsPerBlock, 0},
        [&](BlockCtx& ctx) {
          int64_t seg = ctx.block_index() / chunks_per_segment;
          int64_t piece = ctx.block_index() % chunks_per_segment;
          uint32_t k = offset_order[static_cast<size_t>(seg)];
          int64_t q0 = piece * chunk;
          int64_t q1 = std::min<int64_t>(q0 + chunk, n_out);
          ctx.GlobalRead(&out_keys[static_cast<size_t>(q0)],
                         static_cast<size_t>(q1 - q0) * sizeof(uint64_t));
          for (int64_t i = q0; i < q1; ++i) {
            bool valid = true;
            uint64_t query = query_key(out_keys[static_cast<size_t>(i)], k, &valid);
            int64_t lo = 0;
            int64_t hi = n_src;
            while (lo < hi) {
              int64_t mid = lo + (hi - lo) / 2;
              ctx.GlobalRead(&src_keys[static_cast<size_t>(mid)], sizeof(uint64_t));
              ++comparisons;
              if (src_keys[static_cast<size_t>(mid)] < query) {
                lo = mid + 1;
              } else {
                hi = mid;
              }
            }
            ctx.Compute(20);
            if (valid && lo < n_src && src_keys[static_cast<size_t>(lo)] == query) {
              uint32_t value = src_vals ? src_vals[static_cast<size_t>(lo)]
                                        : static_cast<uint32_t>(lo);
              if (src_vals != nullptr) {
                ctx.GlobalRead(&src_vals[static_cast<size_t>(lo)], sizeof(uint32_t));
              }
              int64_t out_index = out_perm ? out_perm[static_cast<size_t>(i)] : i;
              if (out_perm != nullptr) {
                ctx.GlobalRead(&out_perm[static_cast<size_t>(i)], sizeof(uint32_t));
              }
              positions[k * n_out + out_index] = value;
              ctx.GlobalWrite(&positions[k * n_out + out_index], sizeof(uint32_t));
            }
          }
        });
    result.query_stats += lookup;
    result.lookup_stats = lookup;
    result.comparisons = comparisons;
    return result;
  }

  // --- Backward binary search (Figure 11, steps 1-2): for every source-block
  // pivot and every segment, the first query strictly greater than the pivot.
  const int64_t num_source_blocks = (n_src + block_b - 1) / block_b;
  DeviceVector<uint32_t> boundaries(static_cast<size_t>(n_off * num_source_blocks),
                                    device.memory());
  {
    const int64_t items = n_off * num_source_blocks;
    const int64_t items_per_block = kThreadsPerBlock;
    const int64_t blocks = (items + items_per_block - 1) / items_per_block;
    static const KernelId kBackwardSearch = KernelId::Intern("map/query/backward_search");
    result.query_stats += device.Launch(
        kBackwardSearch, LaunchDims{blocks, kThreadsPerBlock, 0},
        [&](BlockCtx& ctx) {
          int64_t begin = ctx.block_index() * items_per_block;
          int64_t end = std::min<int64_t>(begin + items_per_block, items);
          for (int64_t item = begin; item < end; ++item) {
            int64_t seg = item / num_source_blocks;
            int64_t s = item % num_source_blocks;
            uint32_t k = offset_order[static_cast<size_t>(seg)];
            int64_t pivot_index = std::min<int64_t>((s + 1) * block_b, n_src) - 1;
            ctx.GlobalRead(&src_keys[static_cast<size_t>(pivot_index)], sizeof(uint64_t));
            uint64_t pivot = src_keys[static_cast<size_t>(pivot_index)];
            // upper bound: first i whose query key exceeds the pivot. Query
            // keys are monotone non-decreasing in i (clamped when a boundary
            // sum would wrap), so the bound is well defined either way.
            int64_t lo = 0;
            int64_t hi = n_out;
            while (lo < hi) {
              int64_t mid = lo + (hi - lo) / 2;
              ctx.GlobalRead(&out_keys[static_cast<size_t>(mid)], sizeof(uint64_t));
              ++comparisons;
              // Both bounds as selects: the step has no data-dependent branch.
              const bool above = query_key(out_keys[static_cast<size_t>(mid)], k, nullptr) > pivot;
              hi = above ? mid : hi;
              lo = above ? lo : mid + 1;
            }
            boundaries[static_cast<size_t>(seg * num_source_blocks + s)] =
                static_cast<uint32_t>(lo);
            ctx.GlobalWrite(&boundaries[static_cast<size_t>(seg * num_source_blocks + s)],
                            sizeof(uint32_t));
            ctx.Compute(24);
          }
        });
  }

  // --- Query-block balancing (Figure 11, step 3): split blocks above C.
  // Tasks are laid out source-block-major: the K^3 segments that share a
  // source block are adjacent in the grid, so the staged block and the
  // (heavily overlapping) query ranges are re-served from L2 — this ordering
  // is where the paper's >93% hit ratio comes from.
  DeviceVector<QueryBlockTask> tasks(device.memory());
  for (int64_t s = 0; s < num_source_blocks; ++s) {
    for (int64_t seg = 0; seg < n_off; ++seg) {
      uint32_t k = offset_order[static_cast<size_t>(seg)];
      int64_t prev =
          s == 0 ? 0 : boundaries[static_cast<size_t>(seg * num_source_blocks + s - 1)];
      int64_t bound = boundaries[static_cast<size_t>(seg * num_source_blocks + s)];
      for (int64_t q0 = prev; q0 < bound; q0 += block_c) {
        int64_t q1 = std::min<int64_t>(q0 + block_c, bound);
        tasks.push_back(QueryBlockTask{k, static_cast<uint32_t>(s), static_cast<uint32_t>(q0),
                                       static_cast<uint32_t>(q1)});
      }
    }
  }
  {
    // Charge the balancing pass (a scan + compact over the boundary array).
    const int64_t items = n_off * num_source_blocks;
    const int64_t blocks = (items + kThreadsPerBlock - 1) / kThreadsPerBlock;
    static const KernelId kBalance = KernelId::Intern("map/query/balance");
    result.query_stats += device.Launch(
        kBalance, LaunchDims{std::max<int64_t>(blocks, 1), kThreadsPerBlock, 0},
        [&](BlockCtx& ctx) {
          int64_t begin = ctx.block_index() * kThreadsPerBlock;
          int64_t end = std::min<int64_t>(begin + kThreadsPerBlock, items);
          if (begin >= end) {
            return;
          }
          ctx.GlobalRead(&boundaries[static_cast<size_t>(begin)],
                         static_cast<size_t>(end - begin) * sizeof(uint32_t));
          ctx.Compute(static_cast<uint64_t>(end - begin) * 4);
          // Task writes are attributed proportionally.
          size_t share = tasks.empty() ? 0
                                       : tasks.size() * static_cast<size_t>(end - begin) /
                                             static_cast<size_t>(items);
          ctx.GlobalWrite(tasks.data(), share * sizeof(QueryBlockTask));
        });
  }

  // --- Forward binary search (Figure 11, steps 4-5): one thread block per
  // balanced query block; the source block is staged in scratchpad memory.
  // Each query's binary search over its block is charged from its answer: the
  // step count is LowerBoundSteps(block length, answer offset), tabulated for
  // the full block length B and for the tail block's.
  const int64_t tail_length = n_src - (num_source_blocks - 1) * block_b;
  auto step_table = [](int64_t n) {
    std::vector<uint8_t> table(static_cast<size_t>(n) + 1);
    for (int64_t r = 0; r <= n; ++r) {
      table[static_cast<size_t>(r)] = static_cast<uint8_t>(LowerBoundSteps(n, r));
    }
    return table;
  };
  const std::vector<uint8_t> full_steps = step_table(block_b);
  const std::vector<uint8_t> tail_steps =
      tail_length == block_b ? full_steps : step_table(tail_length);
  const size_t shared_bytes = static_cast<size_t>(block_b) * sizeof(uint64_t);
  static const KernelId kForwardSearch = KernelId::Intern("map/query/forward_search");
  // Each block's comparisons go into its own slot, summed after the launch,
  // so that blocks may run on several threads.
  std::vector<uint64_t> block_comparisons(tasks.size());
  const LaunchDims dims{static_cast<int64_t>(tasks.size()), kThreadsPerBlock, shared_bytes,
                        /*independent_blocks=*/true};
  KernelStats forward = device.Launch(
      kForwardSearch, dims,
      [&](BlockCtx& ctx) {
        const QueryBlockTask& task = tasks[static_cast<size_t>(ctx.block_index())];
        ctx.GlobalRead(&tasks[static_cast<size_t>(ctx.block_index())], sizeof(QueryBlockTask));
        int64_t sb = static_cast<int64_t>(task.source_block) * block_b;
        int64_t se = std::min<int64_t>(sb + block_b, n_src);
        const uint8_t* steps = se - sb == block_b ? full_steps.data() : tail_steps.data();
        // Stage the source block into shared memory.
        ctx.GlobalRead(&src_keys[static_cast<size_t>(sb)],
                       static_cast<size_t>(se - sb) * sizeof(uint64_t));
        ctx.SharedWrite(static_cast<size_t>(se - sb) * sizeof(uint64_t));
        // Stream the query block (coalesced).
        ctx.GlobalRead(&out_keys[task.query_begin],
                       static_cast<size_t>(task.query_end - task.query_begin) * sizeof(uint64_t));
        // The task's queries are nondecreasing (sorted outputs plus one
        // offset, clamped monotonically), so one cursor that only moves
        // forward finds every lower bound in O(queries + B).
        int64_t lo = sb;
        uint64_t block_steps = 0;
        for (uint32_t i = task.query_begin; i < task.query_end; ++i) {
          bool valid = true;
          uint64_t query = query_key(out_keys[i], task.offset_index, &valid);
          while (lo < se && src_keys[static_cast<size_t>(lo)] < query) {
            ++lo;
          }
          block_steps += steps[lo - sb];
          if (valid && lo < se && src_keys[static_cast<size_t>(lo)] == query) {
            uint32_t value =
                src_vals ? src_vals[static_cast<size_t>(lo)] : static_cast<uint32_t>(lo);
            if (src_vals != nullptr) {
              ctx.GlobalRead(&src_vals[static_cast<size_t>(lo)], sizeof(uint32_t));
            }
            int64_t out_index = out_perm ? out_perm[i] : static_cast<int64_t>(i);
            if (out_perm != nullptr) {
              ctx.GlobalRead(&out_perm[i], sizeof(uint32_t));
            }
            positions[static_cast<int64_t>(task.offset_index) * n_out + out_index] = value;
            ctx.GlobalWrite(&positions[static_cast<int64_t>(task.offset_index) * n_out + out_index],
                            sizeof(uint32_t));
          }
        }
        // Charged once per block: the counters are additive.
        ctx.SharedRead(block_steps * sizeof(uint64_t));
        block_comparisons[static_cast<size_t>(ctx.block_index())] = block_steps;
        ctx.Compute(16 * static_cast<uint64_t>(task.query_end - task.query_begin));
      });
  for (uint64_t steps : block_comparisons) {
    comparisons += steps;
  }
  result.query_stats += forward;
  result.lookup_stats = forward;
  result.comparisons = comparisons;
  return result;
}

}  // namespace minuet
