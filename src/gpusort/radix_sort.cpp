#include "src/gpusort/radix_sort.h"

#include <algorithm>
#include <array>
#include <climits>

#include "src/core/coordinate.h"
#include "src/util/check.h"

namespace minuet {

namespace {

constexpr int kDigitBits = 8;
constexpr int kNumBins = 1 << kDigitBits;
constexpr int64_t kKeysPerBlock = 4096;
constexpr int kSortThreadsPerBlock = 256;

int DigitOf(uint64_t key, int shift) {
  return static_cast<int>((key >> shift) & (kNumBins - 1));
}

}  // namespace

SortStats RadixSortPairs(Device& device, std::span<uint64_t> keys, std::span<uint32_t> values,
                         int begin_bit, int end_bit) {
  MINUET_CHECK_GE(begin_bit, 0);
  MINUET_CHECK_LE(end_bit, 64);
  MINUET_CHECK_LE(begin_bit, end_bit);
  const bool has_values = !values.empty();
  if (has_values) {
    MINUET_CHECK_EQ(values.size(), keys.size());
  }

  SortStats stats;
  const int64_t n = static_cast<int64_t>(keys.size());
  if (n <= 1) {
    return stats;
  }
  const int64_t num_blocks = (n + kKeysPerBlock - 1) / kKeysPerBlock;

  DeviceVector<uint64_t> key_tmp(keys.size(), device.memory());
  DeviceVector<uint32_t> val_tmp(values.size(), device.memory());
  // block_hist[b * kNumBins + d]: count of digit d in block b's chunk.
  DeviceVector<int64_t> block_hist(static_cast<size_t>(num_blocks) * kNumBins, device.memory());

  for (int shift = begin_bit; shift < end_bit; shift += kDigitBits) {
    ++stats.passes_total;

    // Kernel 1: per-block digit histogram.
    std::fill(block_hist.begin(), block_hist.end(), 0);
    static const KernelId kHistogram = KernelId::Intern("sort/radix/histogram");
    stats.kernels += device.Launch(
        kHistogram, LaunchDims{num_blocks, kSortThreadsPerBlock, kNumBins * sizeof(uint32_t)},
        [&](BlockCtx& ctx) {
          int64_t begin = ctx.block_index() * kKeysPerBlock;
          int64_t end = std::min<int64_t>(begin + kKeysPerBlock, n);
          ctx.GlobalRead(&keys[static_cast<size_t>(begin)],
                         static_cast<size_t>(end - begin) * sizeof(uint64_t));
          int64_t* hist = &block_hist[static_cast<size_t>(ctx.block_index()) * kNumBins];
          for (int64_t i = begin; i < end; ++i) {
            ++hist[DigitOf(keys[static_cast<size_t>(i)], shift)];
          }
          ctx.Compute(static_cast<uint64_t>(end - begin) * 2);
          ctx.SharedWrite(static_cast<size_t>(end - begin) * sizeof(uint32_t));
          ctx.GlobalWrite(hist, kNumBins * sizeof(uint32_t));
        });

    // Uniform-digit pass: nothing moves; skip scan and scatter.
    bool uniform = true;
    {
      int first_digit = -1;
      for (int d = 0; d < kNumBins && uniform; ++d) {
        int64_t total = 0;
        for (int64_t b = 0; b < num_blocks; ++b) {
          total += block_hist[static_cast<size_t>(b) * kNumBins + static_cast<size_t>(d)];
        }
        if (total != 0) {
          if (first_digit >= 0) {
            uniform = false;
          } else {
            first_digit = d;
          }
        }
      }
    }
    if (uniform) {
      continue;
    }
    ++stats.passes_scattered;

    // Kernel 2: exclusive scan over the digit-major (d, b) layout, producing
    // for each (block, digit) the global base offset of its first element.
    DeviceVector<int64_t> base(static_cast<size_t>(num_blocks) * kNumBins, device.memory());
    static const KernelId kScan = KernelId::Intern("sort/radix/scan");
    stats.kernels += device.Launch(
        kScan, LaunchDims{1, kSortThreadsPerBlock, 0}, [&](BlockCtx& ctx) {
          ctx.GlobalRead(block_hist.data(), block_hist.size() * sizeof(uint32_t));
          int64_t running = 0;
          for (int d = 0; d < kNumBins; ++d) {
            for (int64_t b = 0; b < num_blocks; ++b) {
              size_t idx = static_cast<size_t>(b) * kNumBins + static_cast<size_t>(d);
              base[idx] = running;
              running += block_hist[idx];
            }
          }
          ctx.Compute(block_hist.size());
          ctx.GlobalWrite(base.data(), base.size() * sizeof(uint32_t));
        });

    // Kernel 3: stable scatter, CUB-style. Keys are first ranked inside the
    // block via shared memory so that each digit's keys leave as one
    // contiguous global write (a block's slice of a digit is contiguous in
    // the output by construction of the scan).
    static const KernelId kScatter = KernelId::Intern("sort/radix/scatter");
    stats.kernels += device.Launch(
        kScatter,
        LaunchDims{num_blocks, kSortThreadsPerBlock,
                   kKeysPerBlock * (sizeof(uint64_t) + sizeof(uint32_t))},
        [&](BlockCtx& ctx) {
          int64_t begin = ctx.block_index() * kKeysPerBlock;
          int64_t end = std::min<int64_t>(begin + kKeysPerBlock, n);
          size_t chunk_key_bytes = static_cast<size_t>(end - begin) * sizeof(uint64_t);
          ctx.GlobalRead(&keys[static_cast<size_t>(begin)], chunk_key_bytes);
          if (has_values) {
            ctx.GlobalRead(&values[static_cast<size_t>(begin)],
                           static_cast<size_t>(end - begin) * sizeof(uint32_t));
          }
          ctx.GlobalRead(&base[static_cast<size_t>(ctx.block_index()) * kNumBins],
                         kNumBins * sizeof(uint32_t));
          // Local ranking traffic: keys in and out of shared memory.
          ctx.SharedWrite(chunk_key_bytes);
          ctx.SharedRead(chunk_key_bytes);
          std::array<int64_t, kNumBins> cursor;
          std::array<int64_t, kNumBins> digit_count{};
          for (int d = 0; d < kNumBins; ++d) {
            cursor[static_cast<size_t>(d)] =
                base[static_cast<size_t>(ctx.block_index()) * kNumBins + static_cast<size_t>(d)];
          }
          for (int64_t i = begin; i < end; ++i) {
            int d = DigitOf(keys[static_cast<size_t>(i)], shift);
            int64_t dst = cursor[static_cast<size_t>(d)]++;
            ++digit_count[static_cast<size_t>(d)];
            key_tmp[static_cast<size_t>(dst)] = keys[static_cast<size_t>(i)];
            if (has_values) {
              val_tmp[static_cast<size_t>(dst)] = values[static_cast<size_t>(i)];
            }
          }
          // One coalesced write per digit run present in the block.
          for (int d = 0; d < kNumBins; ++d) {
            int64_t cnt = digit_count[static_cast<size_t>(d)];
            if (cnt == 0) {
              continue;
            }
            int64_t run_begin = cursor[static_cast<size_t>(d)] - cnt;
            ctx.GlobalWrite(&key_tmp[static_cast<size_t>(run_begin)],
                            static_cast<size_t>(cnt) * sizeof(uint64_t));
            if (has_values) {
              ctx.GlobalWrite(&val_tmp[static_cast<size_t>(run_begin)],
                              static_cast<size_t>(cnt) * sizeof(uint32_t));
            }
          }
          ctx.Compute(static_cast<uint64_t>(end - begin) * 4);
        });

    std::copy(key_tmp.begin(), key_tmp.end(), keys.begin());
    if (has_values) {
      std::copy(val_tmp.begin(), val_tmp.end(), values.begin());
    }
  }
  return stats;
}

SortStats RadixSortKeys(Device& device, std::span<uint64_t> keys, int begin_bit, int end_bit) {
  return RadixSortPairs(device, keys, {}, begin_bit, end_bit);
}

SortStats RadixSortCoordPairs(Device& device, std::span<uint64_t> keys,
                              std::span<uint32_t> values) {
  const int64_t n = static_cast<int64_t>(keys.size());
  if (n <= 1) {
    return SortStats{};
  }
  SortStats stats;
  constexpr int kThreads = 256;
  const int64_t blocks = (n + kKeysPerBlock - 1) / kKeysPerBlock;

  // Kernel A: per-axis min/max reduction over the packed keys.
  Coord3 lo{INT32_MAX, INT32_MAX, INT32_MAX};
  Coord3 hi{INT32_MIN, INT32_MIN, INT32_MIN};
  static const KernelId kMinmaxReduce = KernelId::Intern("sort/coord/minmax_reduce");
  stats.kernels += device.Launch(
      kMinmaxReduce, LaunchDims{blocks, kThreads, 0}, [&](BlockCtx& ctx) {
        int64_t begin = ctx.block_index() * kKeysPerBlock;
        int64_t end = std::min<int64_t>(begin + kKeysPerBlock, n);
        ctx.GlobalRead(&keys[static_cast<size_t>(begin)],
                       static_cast<size_t>(end - begin) * sizeof(uint64_t));
        for (int64_t i = begin; i < end; ++i) {
          Coord3 c = UnpackCoord(keys[static_cast<size_t>(i)]);
          lo.x = std::min(lo.x, c.x);
          lo.y = std::min(lo.y, c.y);
          lo.z = std::min(lo.z, c.z);
          hi.x = std::max(hi.x, c.x);
          hi.y = std::max(hi.y, c.y);
          hi.z = std::max(hi.z, c.z);
        }
        ctx.Compute(static_cast<uint64_t>(end - begin) * 6);
      });

  auto bits_for = [](int64_t span) {
    int bits = 1;
    while ((int64_t{1} << bits) <= span) {
      ++bits;
    }
    return bits;
  };
  const int bz = bits_for(hi.z - lo.z);
  const int by = bits_for(hi.y - lo.y);
  const int bx = bits_for(hi.x - lo.x);
  const int total_bits = bx + by + bz;
  MINUET_CHECK_LE(total_bits, 63);

  // Kernel B: re-pack each key into the compact layout (order-preserving).
  DeviceVector<uint64_t> compact(static_cast<size_t>(n), device.memory());
  static const KernelId kRepack = KernelId::Intern("sort/coord/repack");
  stats.kernels += device.Launch(
      kRepack, LaunchDims{blocks, kThreads, 0}, [&](BlockCtx& ctx) {
        int64_t begin = ctx.block_index() * kKeysPerBlock;
        int64_t end = std::min<int64_t>(begin + kKeysPerBlock, n);
        ctx.GlobalRead(&keys[static_cast<size_t>(begin)],
                       static_cast<size_t>(end - begin) * sizeof(uint64_t));
        for (int64_t i = begin; i < end; ++i) {
          Coord3 c = UnpackCoord(keys[static_cast<size_t>(i)]);
          compact[static_cast<size_t>(i)] =
              (static_cast<uint64_t>(c.x - lo.x) << (by + bz)) |
              (static_cast<uint64_t>(c.y - lo.y) << bz) | static_cast<uint64_t>(c.z - lo.z);
        }
        ctx.Compute(static_cast<uint64_t>(end - begin) * 6);
        ctx.GlobalWrite(&compact[static_cast<size_t>(begin)],
                        static_cast<size_t>(end - begin) * sizeof(uint64_t));
      });

  // The compact sort: same final order as sorting the original keys, since
  // both packings are lexicographic in (x, y, z).
  SortStats sort_stats = RadixSortPairs(device, compact, values, 0, total_bits);
  stats.kernels += sort_stats.kernels;
  stats.passes_total = sort_stats.passes_total;
  stats.passes_scattered = sort_stats.passes_scattered;

  // Kernel C: rebuild the original keys in sorted order.
  static const KernelId kUnpack = KernelId::Intern("sort/coord/unpack");
  stats.kernels += device.Launch(
      kUnpack, LaunchDims{blocks, kThreads, 0}, [&](BlockCtx& ctx) {
        int64_t begin = ctx.block_index() * kKeysPerBlock;
        int64_t end = std::min<int64_t>(begin + kKeysPerBlock, n);
        ctx.GlobalRead(&compact[static_cast<size_t>(begin)],
                       static_cast<size_t>(end - begin) * sizeof(uint64_t));
        for (int64_t i = begin; i < end; ++i) {
          uint64_t ck = compact[static_cast<size_t>(i)];
          Coord3 c{static_cast<int32_t>(ck >> (by + bz)) + lo.x,
                   static_cast<int32_t>((ck >> bz) & ((uint64_t{1} << by) - 1)) + lo.y,
                   static_cast<int32_t>(ck & ((uint64_t{1} << bz) - 1)) + lo.z};
          keys[static_cast<size_t>(i)] = PackCoord(c);
        }
        ctx.Compute(static_cast<uint64_t>(end - begin) * 6);
        ctx.GlobalWrite(&keys[static_cast<size_t>(begin)],
                        static_cast<size_t>(end - begin) * sizeof(uint64_t));
      });
  return stats;
}

}  // namespace minuet
