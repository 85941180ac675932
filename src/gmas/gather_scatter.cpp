#include "src/gmas/gather_scatter.h"

#include <algorithm>
#include <cstring>

#include "src/util/check.h"

namespace minuet {

namespace {

// Threads are laid out point-major: thread id = point * tiles_per_row + tile,
// so a warp covers contiguous tiles (coalesced feature/buffer traffic) and
// the tiles of one point read the same metadata entry (warp broadcast: one
// transaction, tiles_per_row issue slots).
struct ThreadSpan {
  int64_t point;
  int64_t tile_begin;
  int64_t tile_end;
};

// Decomposes a block's contiguous thread range into per-point tile spans.
template <typename Fn>
void ForEachPointSpan(int64_t thread_begin, int64_t thread_end, int64_t tiles_per_row, Fn&& fn) {
  int64_t id = thread_begin;
  while (id < thread_end) {
    int64_t point = id / tiles_per_row;
    int64_t tile = id % tiles_per_row;
    int64_t span_end = std::min(thread_end - id, tiles_per_row - tile);
    fn(ThreadSpan{point, tile, tile + span_end});
    id += span_end;
  }
}

}  // namespace

std::vector<int> CandidateTileSizes(int64_t channels) {
  MINUET_CHECK_GT(channels, 0);
  std::vector<int> tiles;
  for (int t = 1; t <= channels; ++t) {
    if (channels % t == 0) {
      tiles.push_back(t);
    }
  }
  return tiles;
}

KernelStats ClearBuffer(Device& device, const FeatureMatrix& buffer, int element_bytes) {
  constexpr int64_t kRowsPerBlock = 256;
  const int64_t rows = buffer.rows();
  const int64_t blocks = std::max<int64_t>(1, (rows + kRowsPerBlock - 1) / kRowsPerBlock);
  const int64_t row_bytes = buffer.cols() * static_cast<int64_t>(element_bytes);
  static const KernelId kMemset = KernelId::Intern("gmas/buffer/memset");
  const LaunchDims dims{blocks, 128, 0, /*independent_blocks=*/true};
  return device.Launch(kMemset, dims, [&](BlockCtx& ctx) {
    int64_t begin = ctx.block_index() * kRowsPerBlock;
    int64_t end = std::min(begin + kRowsPerBlock, rows);
    if (begin >= end) {
      return;
    }
    size_t device_bytes = static_cast<size_t>((end - begin) * row_bytes);
    ctx.GlobalWrite(buffer.data() + begin * buffer.cols(), device_bytes);
    ctx.Compute(device_bytes / 16);
  });
}

KernelStats GatherKernel(Device& device, const MetadataTables& tables,
                         const FeatureMatrix& features, FeatureMatrix& buffer,
                         const TileKernelConfig& config) {
  const int64_t c = features.cols();
  MINUET_CHECK_GT(config.tile_size, 0);
  MINUET_CHECK_EQ(c % config.tile_size, 0) << "tile size must divide the channel count";
  MINUET_CHECK_EQ(buffer.cols(), c);
  MINUET_CHECK_EQ(buffer.rows(), tables.buffer_rows);
  MINUET_CHECK_EQ(features.rows(), tables.num_inputs);

  const int64_t tiles_per_row = c / config.tile_size;
  const int64_t total_threads = tiles_per_row * tables.num_inputs;
  const int64_t blocks =
      std::max<int64_t>(1, (total_threads + kThreadsPerBlock - 1) / kThreadsPerBlock);
  const int64_t tile_bytes = config.tile_size * static_cast<int64_t>(config.element_bytes);

  static const KernelId kTileCopy = KernelId::Intern("gmas/gather/tile_copy");
  const LaunchDims dims{blocks, kThreadsPerBlock, 0, /*independent_blocks=*/true};
  return device.Launch(
      kTileCopy, dims, [&](BlockCtx& ctx) {
        int64_t begin = ctx.block_index() * kThreadsPerBlock;
        int64_t end = std::min(begin + kThreadsPerBlock, total_threads);
        ForEachPointSpan(begin, end, tiles_per_row, [&](const ThreadSpan& span) {
          const int64_t i = span.point;
          const int64_t span_tiles = span.tile_end - span.tile_begin;
          const float* src = features.data() + i * c + span.tile_begin * config.tile_size;
          const size_t span_bytes = static_cast<size_t>(span_tiles * tile_bytes);
          const size_t span_floats = static_cast<size_t>(span_tiles * config.tile_size);
          // Each thread stages its tile in registers (Algorithm 1, line 3).
          ctx.GlobalRead(src, span_bytes);
          for (int64_t k = 0; k < tables.num_offsets; ++k) {
            // Every tile thread issues the lookup (Algorithm 1 line 5); a
            // warp's 32 copies broadcast into one transaction, so the
            // indexing cost is one transaction per warp per (point, offset)
            // plus the issue slots — this is what makes small tiles pay.
            ctx.GlobalReadRepeated(&tables.imt[static_cast<size_t>(k * tables.num_inputs + i)],
                                   sizeof(uint32_t), (span_tiles + 31) / 32);
            ctx.Compute(static_cast<uint64_t>(span_tiles) * 4);
            uint32_t slot = tables.InputSlot(k, i);
            if (slot == kNoMatch) {
              continue;
            }
            float* dst = buffer.data() + static_cast<int64_t>(slot) * c +
                         span.tile_begin * config.tile_size;
            if (config.functional) {
              std::memcpy(dst, src, span_floats * sizeof(float));
            }
            ctx.GlobalWrite(dst, span_bytes);
            ctx.Compute(span_bytes / 16 + 1);
          }
        });
      });
}

KernelStats ScatterKernel(Device& device, const FeatureMatrix& buffer,
                          const MetadataTables& tables, FeatureMatrix& output,
                          const TileKernelConfig& config) {
  const int64_t c = output.cols();
  MINUET_CHECK_GT(config.tile_size, 0);
  MINUET_CHECK_EQ(c % config.tile_size, 0) << "tile size must divide the channel count";
  MINUET_CHECK_EQ(buffer.cols(), c);
  MINUET_CHECK_EQ(buffer.rows(), tables.buffer_rows);
  MINUET_CHECK_EQ(output.rows(), tables.num_outputs);

  const int64_t tiles_per_row = c / config.tile_size;
  const int64_t total_threads = tiles_per_row * tables.num_outputs;
  const int64_t blocks =
      std::max<int64_t>(1, (total_threads + kThreadsPerBlock - 1) / kThreadsPerBlock);
  const int64_t tile_bytes = config.tile_size * static_cast<int64_t>(config.element_bytes);

  static const KernelId kTileReduce = KernelId::Intern("gmas/scatter/tile_reduce");
  const LaunchDims dims{blocks, kThreadsPerBlock, 0, /*independent_blocks=*/true};
  return device.Launch(
      kTileReduce, dims, [&](BlockCtx& ctx) {
        int64_t begin = ctx.block_index() * kThreadsPerBlock;
        int64_t end = std::min(begin + kThreadsPerBlock, total_threads);
        ForEachPointSpan(begin, end, tiles_per_row, [&](const ThreadSpan& span) {
          const int64_t j = span.point;
          const int64_t span_tiles = span.tile_end - span.tile_begin;
          const size_t span_bytes = static_cast<size_t>(span_tiles * tile_bytes);
          float* dst = output.data() + j * c + span.tile_begin * config.tile_size;
          if (config.functional) {
            std::memset(dst, 0,
                        static_cast<size_t>(span_tiles * config.tile_size) * sizeof(float));
          }
          for (int64_t k = 0; k < tables.num_offsets; ++k) {
            ctx.GlobalReadRepeated(&tables.omt[static_cast<size_t>(k * tables.num_outputs + j)],
                                   sizeof(uint32_t), (span_tiles + 31) / 32);
            ctx.Compute(static_cast<uint64_t>(span_tiles) * 4);
            uint32_t slot = tables.OutputSlot(k, j);
            if (slot == kNoMatch) {
              continue;
            }
            const float* src = buffer.data() + static_cast<int64_t>(slot) * c +
                               span.tile_begin * config.tile_size;
            ctx.GlobalRead(src, span_bytes);
            if (config.functional) {
              for (int64_t e = 0; e < span_tiles * config.tile_size; ++e) {
                dst[e] += src[e];
              }
            }
            ctx.Compute(static_cast<uint64_t>(span_tiles * config.tile_size));
          }
          ctx.GlobalWrite(dst, span_bytes);
        });
      });
}

}  // namespace minuet
