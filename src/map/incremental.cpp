#include "src/map/incremental.h"

#include <algorithm>
#include <numeric>

#include "src/gpusort/radix_sort.h"
#include "src/util/check.h"

namespace minuet {

namespace {

// Merge cursor snapshot at an output-chunk boundary: how far each input list
// has been consumed. Lets the merge kernel charge each block's real reads.
struct MergeCut {
  int64_t prev = 0;
  int64_t del = 0;
  int64_t ins = 0;

  friend bool operator==(const MergeCut&, const MergeCut&) = default;
};

}  // namespace

KernelStats ChargeDeltaMerge(Device& device, DeviceVector<uint64_t>& keys, uint64_t motion_delta,
                             std::span<const uint64_t> deleted_host,
                             std::span<const uint64_t> inserted) {
  KernelStats stats;
  const int64_t n = static_cast<int64_t>(keys.size());
  const int64_t tpb = kThreadsPerBlock;

  // Rebias: the rigid motion is one constant added to every key (the
  // order-preserving packing at work), so the array stays sorted. Skipped
  // when the frame did not move.
  if (motion_delta != 0 && n > 0) {
    static const KernelId kRebias = KernelId::Intern("map/delta/rebias");
    const int64_t blocks = (n + tpb - 1) / tpb;
    stats += device.Launch(kRebias, LaunchDims{blocks, kThreadsPerBlock, 0}, [&](BlockCtx& ctx) {
      const int64_t begin = ctx.block_index() * tpb;
      const int64_t end = std::min<int64_t>(begin + tpb, n);
      ctx.GlobalRead(&keys[static_cast<size_t>(begin)],
                     static_cast<size_t>(end - begin) * sizeof(uint64_t));
      for (int64_t i = begin; i < end; ++i) {
        keys[static_cast<size_t>(i)] += motion_delta;
      }
      ctx.Compute(static_cast<uint64_t>(end - begin));
      ctx.GlobalWrite(&keys[static_cast<size_t>(begin)],
                      static_cast<size_t>(end - begin) * sizeof(uint64_t));
    });
  }
  MINUET_DCHECK(std::is_sorted(keys.begin(), keys.end()));

  const int64_t d = static_cast<int64_t>(deleted_host.size());
  const int64_t m = static_cast<int64_t>(inserted.size());
  if (d == 0 && m == 0) {
    return stats;
  }
  MINUET_CHECK(std::is_sorted(deleted_host.begin(), deleted_host.end()));
  const DeviceVector<uint64_t> deleted = ToDevice(device.memory(), deleted_host);

  // The churned-in voxels arrive unordered from the sensor; sorting the small
  // list is charged even though callers happen to hand it sorted already.
  // The list is churn-bounded (a fraction of the frame), so it gets one
  // CUB-style block sort — a bitonic network staged in shared memory, a
  // single launch — not the multi-pass device radix sort, whose per-launch
  // overhead alone would rival the from-scratch coordinate sort this path
  // exists to avoid.
  DeviceVector<uint64_t> ins = ToDevice(device.memory(), inserted);
  if (!ins.empty()) {
    static const KernelId kSortInserts = KernelId::Intern("map/delta/sort_inserts");
    const uint64_t bytes = ins.size() * sizeof(uint64_t);
    uint64_t bits = 0;
    while ((uint64_t{1} << bits) < ins.size()) {
      ++bits;
    }
    // Bitonic comparator count: (m/2) * stages, stages = bits*(bits+1)/2.
    const uint64_t comparators = (static_cast<uint64_t>(ins.size()) / 2 + 1) * bits * (bits + 1) / 2;
    stats += device.Launch(kSortInserts, LaunchDims{1, kThreadsPerBlock, 0}, [&](BlockCtx& ctx) {
      ctx.GlobalRead(ins.data(), bytes);
      std::sort(ins.begin(), ins.end());
      ctx.SharedRead(bytes);
      ctx.SharedWrite(bytes);
      ctx.Compute(comparators);
      ctx.GlobalWrite(ins.data(), bytes);
    });
  }
  MINUET_CHECK(std::is_sorted(ins.begin(), ins.end()));

  // Single linear merge pass: survivors of `keys` interleaved with `ins`,
  // `deleted` consumed alongside. Cursor snapshots every tpb outputs give the
  // kernel exact per-block read spans.
  DeviceVector<uint64_t> merged(device.memory());
  merged.reserve(static_cast<size_t>(n - d + m));
  std::vector<MergeCut> cuts;
  cuts.push_back(MergeCut{});
  int64_t pi = 0;
  int64_t di = 0;
  int64_t ii = 0;
  auto emit = [&](uint64_t key) {
    merged.push_back(key);
    if (static_cast<int64_t>(merged.size()) % tpb == 0) {
      cuts.push_back(MergeCut{pi, di, ii});
    }
  };
  while (pi < n) {
    const uint64_t key = keys[static_cast<size_t>(pi)];
    if (di < d) {
      MINUET_CHECK_GE(deleted[static_cast<size_t>(di)], key)
          << "delta deletes a voxel that is not present";
      if (deleted[static_cast<size_t>(di)] == key) {
        ++pi;
        ++di;
        continue;
      }
    }
    while (ii < m && ins[static_cast<size_t>(ii)] < key) {
      const uint64_t v = ins[static_cast<size_t>(ii)];
      ++ii;
      emit(v);
    }
    MINUET_CHECK(ii >= m || ins[static_cast<size_t>(ii)] != key)
        << "delta inserts a voxel that already exists";
    ++pi;
    emit(key);
  }
  MINUET_CHECK_EQ(di, d) << "delta deletes a voxel that is not present";
  while (ii < m) {
    const uint64_t v = ins[static_cast<size_t>(ii)];
    ++ii;
    emit(v);
  }
  const MergeCut final_cut{n, d, m};
  if (cuts.back() != final_cut) {
    cuts.push_back(final_cut);
  }

  const int64_t out_n = static_cast<int64_t>(merged.size());
  const int64_t num_chunks = static_cast<int64_t>(cuts.size()) - 1;
  static const KernelId kMerge = KernelId::Intern("map/delta/merge");
  stats += device.Launch(kMerge, LaunchDims{num_chunks, kThreadsPerBlock, 0}, [&](BlockCtx& ctx) {
    const MergeCut& c0 = cuts[static_cast<size_t>(ctx.block_index())];
    const MergeCut& c1 = cuts[static_cast<size_t>(ctx.block_index() + 1)];
    if (c1.prev > c0.prev) {
      ctx.GlobalRead(&keys[static_cast<size_t>(c0.prev)],
                     static_cast<size_t>(c1.prev - c0.prev) * sizeof(uint64_t));
    }
    if (c1.del > c0.del) {
      ctx.GlobalRead(&deleted[static_cast<size_t>(c0.del)],
                     static_cast<size_t>(c1.del - c0.del) * sizeof(uint64_t));
    }
    if (c1.ins > c0.ins) {
      ctx.GlobalRead(&ins[static_cast<size_t>(c0.ins)],
                     static_cast<size_t>(c1.ins - c0.ins) * sizeof(uint64_t));
    }
    const int64_t o0 = std::min<int64_t>(ctx.block_index() * tpb, out_n);
    const int64_t o1 = std::min<int64_t>((ctx.block_index() + 1) * tpb, out_n);
    if (o1 > o0) {
      ctx.GlobalWrite(&merged[static_cast<size_t>(o0)],
                      static_cast<size_t>(o1 - o0) * sizeof(uint64_t));
    }
    ctx.Compute(static_cast<uint64_t>((c1.prev - c0.prev) + (c1.del - c0.del) + (c1.ins - c0.ins)));
  });
  keys = std::move(merged);
  return stats;
}

ChainStep SortedKeyChain::Advance(Device& device, uint64_t motion_delta,
                                  std::span<const uint64_t> deleted,
                                  std::span<const uint64_t> inserted,
                                  std::span<const uint64_t> keys) {
  const int64_t n = static_cast<int64_t>(keys_.size());
  const int64_t growth = static_cast<int64_t>(std::max(deleted.size(), inserted.size()));
  ChainStep step;
  if (!chained_ || n == 0) {
    step.churn = growth > 0 || !chained_ ? 1.0 : 0.0;
  } else {
    step.churn = static_cast<double>(growth) / static_cast<double>(n);
  }
  if (!chained_ || step.churn > kRebuildChurn) {
    Adopt(device, keys);
    return step;
  }

  step.incremental = true;
  step.delta_stats = ChargeDeltaMerge(device, keys_, motion_delta, deleted, inserted);
  ++frames_incremental_;
  // The correctness invariant: the maintained array IS the frame's sorted key
  // array, bit for bit; everything derived from it follows.
  MINUET_CHECK(std::ranges::equal(keys_, keys))
      << "incremental merge diverged from the frame's key set (was the delta not "
         "derived from the previous frame?)";
  return step;
}

void SortedKeyChain::Adopt(Device& device, std::span<const uint64_t> keys) {
  keys_ = ToDevice(device.memory(), keys);
  chained_ = true;
  ++frames_rebuilt_;
}

void SortedKeyChain::Reset() {
  keys_ = DeviceVector<uint64_t>();  // frees the device storage too
  chained_ = false;
}

KernelStats IncrementalMapBuilder::SortKeys(Device& device) {
  DeviceVector<uint64_t>& keys = chain_.keys();
  if (keys.empty()) {
    return {};
  }
  DeviceVector<uint32_t> vals(keys.size(), device.memory());
  std::iota(vals.begin(), vals.end(), 0u);
  return RadixSortCoordPairs(device, keys, vals).kernels;
}

MapBuildResult IncrementalMapBuilder::BuildMap(Device& device, std::span<const Coord3> offsets) {
  const DeviceVector<uint64_t>& keys = chain_.keys();
  return inner_.Build(
      device, MapBuildInput{keys, keys, offsets, /*source_sorted=*/true, /*output_sorted=*/true});
}

IncrementalBuildResult IncrementalMapBuilder::BuildFull(Device& device,
                                                        std::span<const uint64_t> keys,
                                                        std::span<const Coord3> offsets) {
  chain_.Adopt(device, keys);
  IncrementalBuildResult result;
  result.delta_stats = SortKeys(device);
  result.map = BuildMap(device, offsets);
  return result;
}

IncrementalBuildResult IncrementalMapBuilder::BuildDelta(Device& device, uint64_t motion_delta,
                                                         std::span<const uint64_t> deleted,
                                                         std::span<const uint64_t> inserted,
                                                         std::span<const uint64_t> expected_keys,
                                                         std::span<const Coord3> offsets) {
  const ChainStep step = chain_.Advance(device, motion_delta, deleted, inserted, expected_keys);
  IncrementalBuildResult result;
  result.incremental = step.incremental;
  result.churn = step.churn;
  result.delta_stats = step.incremental ? step.delta_stats : SortKeys(device);
  result.map = BuildMap(device, offsets);
  return result;
}

}  // namespace minuet
