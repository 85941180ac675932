#include "src/engine/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>

#include "src/core/weight_offsets.h"
#include "src/gmas/autotune.h"
#include "src/gmas/metadata.h"
#include "src/gmas/pooling.h"
#include "src/gpusort/radix_sort.h"
#include "src/map/binary_baselines.h"
#include "src/map/hash_map.h"
#include "src/map/minuet_map.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/check.h"
#include "src/util/half.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace minuet {

namespace {

// CoordLevel/LevelPtr live in plan_cache.h now, shared with ExecutionPlan.

struct Activation {
  LevelPtr level;
  FeatureMatrix features;
};

void AccumulateKernel(StepBreakdown& breakdown, double StepBreakdown::*field,
                      const KernelStats& stats) {
  breakdown.*field += stats.cycles;
  breakdown.launches += stats.num_launches;
}

// Elementwise kernels. BN parameters are folded constants (inference mode);
// the nonlinearity is a leaky ReLU so that signal survives for the
// engine-equivalence tests.
KernelStats ApplyBnRelu(Device& device, FeatureMatrix& features, bool functional) {
  constexpr int64_t kRowsPerBlock = 256;
  const int64_t rows = features.rows();
  const int64_t blocks = std::max<int64_t>(1, (rows + kRowsPerBlock - 1) / kRowsPerBlock);
  static const KernelId kBnRelu = KernelId::Intern("engine/elementwise/bn_relu");
  return device.Launch(kBnRelu, LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
    int64_t begin = ctx.block_index() * kRowsPerBlock;
    int64_t end = std::min(begin + kRowsPerBlock, rows);
    if (begin >= end) {
      return;
    }
    float* data = features.data() + begin * features.cols();
    size_t bytes = static_cast<size_t>((end - begin) * features.cols()) * sizeof(float);
    ctx.GlobalRead(data, bytes);
    if (functional) {
      for (int64_t i = 0; i < (end - begin) * features.cols(); ++i) {
        data[i] = data[i] > 0.0f ? data[i] : 0.1f * data[i];
      }
    }
    ctx.GlobalWrite(data, bytes);
    ctx.Compute(bytes / 4);
  });
}

KernelStats AddInto(Device& device, FeatureMatrix& dst, const FeatureMatrix& src,
                    bool functional) {
  MINUET_CHECK_EQ(dst.rows(), src.rows());
  MINUET_CHECK_EQ(dst.cols(), src.cols());
  constexpr int64_t kRowsPerBlock = 256;
  const int64_t rows = dst.rows();
  const int64_t blocks = std::max<int64_t>(1, (rows + kRowsPerBlock - 1) / kRowsPerBlock);
  static const KernelId kResidualAdd = KernelId::Intern("engine/elementwise/residual_add");
  return device.Launch(kResidualAdd, LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
    int64_t begin = ctx.block_index() * kRowsPerBlock;
    int64_t end = std::min(begin + kRowsPerBlock, rows);
    if (begin >= end) {
      return;
    }
    int64_t n = (end - begin) * dst.cols();
    float* d = dst.data() + begin * dst.cols();
    const float* s = src.data() + begin * src.cols();
    ctx.GlobalRead(s, static_cast<size_t>(n) * sizeof(float));
    ctx.GlobalRead(d, static_cast<size_t>(n) * sizeof(float));
    if (functional) {
      for (int64_t i = 0; i < n; ++i) {
        d[i] += s[i];
      }
    }
    ctx.GlobalWrite(d, static_cast<size_t>(n) * sizeof(float));
    ctx.Compute(static_cast<uint64_t>(n));
  });
}

// Copies (or concatenates) rows; used by skip saves and concat.
KernelStats CopyColumns(Device& device, const FeatureMatrix& src, FeatureMatrix& dst,
                        int64_t dst_col_offset, bool functional) {
  MINUET_CHECK_EQ(src.rows(), dst.rows());
  MINUET_CHECK_LE(dst_col_offset + src.cols(), dst.cols());
  constexpr int64_t kRowsPerBlock = 256;
  const int64_t rows = src.rows();
  const int64_t blocks = std::max<int64_t>(1, (rows + kRowsPerBlock - 1) / kRowsPerBlock);
  static const KernelId kCopyFeatures = KernelId::Intern("engine/elementwise/copy_features");
  return device.Launch(kCopyFeatures, LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
    int64_t begin = ctx.block_index() * kRowsPerBlock;
    int64_t end = std::min(begin + kRowsPerBlock, rows);
    for (int64_t i = begin; i < end; ++i) {
      auto s = src.Row(i);
      ctx.GlobalRead(s.data(), s.size_bytes());
      float* d = dst.data() + i * dst.cols() + dst_col_offset;
      if (functional) {
        std::copy(s.begin(), s.end(), d);
      }
      ctx.GlobalWrite(d, s.size_bytes());
    }
    ctx.Compute(static_cast<uint64_t>((end - begin) * src.cols()) / 4);
  });
}

KernelStats GlobalAvgPool(Device& device, const FeatureMatrix& src, FeatureMatrix& dst,
                          bool functional) {
  MINUET_CHECK_EQ(dst.rows(), 1);
  MINUET_CHECK_EQ(dst.cols(), src.cols());
  const int64_t rows = std::max<int64_t>(src.rows(), 1);
  constexpr int64_t kRowsPerBlock = 256;
  const int64_t blocks = std::max<int64_t>(1, (src.rows() + kRowsPerBlock - 1) / kRowsPerBlock);
  static const KernelId kGlobalAvgPool = KernelId::Intern("engine/elementwise/global_avg_pool");
  return device.Launch(kGlobalAvgPool, LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
    int64_t begin = ctx.block_index() * kRowsPerBlock;
    int64_t end = std::min(begin + kRowsPerBlock, src.rows());
    if (begin >= end) {
      return;
    }
    ctx.GlobalRead(src.data() + begin * src.cols(),
                   static_cast<size_t>((end - begin) * src.cols()) * sizeof(float));
    if (functional) {
      for (int64_t i = begin; i < end; ++i) {
        for (int64_t j = 0; j < src.cols(); ++j) {
          dst.At(0, j) += src.At(i, j) / static_cast<float>(rows);
        }
      }
    }
    ctx.GlobalWrite(dst.data(), static_cast<size_t>(dst.cols()) * sizeof(float));
    ctx.Compute(static_cast<uint64_t>((end - begin) * src.cols()));
  });
}

// Rounds all activations through binary16 (fp16 inference mode).
void RoundFeaturesToHalf(FeatureMatrix& features) {
  float* data = features.data();
  const int64_t n = features.rows() * features.cols();
  for (int64_t i = 0; i < n; ++i) {
    data[i] = RoundToHalf(data[i]);
  }
}

// Charges coordinate generation of a generative conv: K^3 |P| dilated
// candidates deduplicated (sorted engines: one big sort + unique; hash
// engines: insert-with-duplicate-checks). Approximated as the sorted-engine
// sort over the candidate count or a hash pass of the same volume.
KernelStats ChargeDilationDedup(Device& device, std::span<const uint64_t> input_keys,
                                size_t num_offsets, int64_t num_unique, bool sorted_engine) {
  KernelStats stats;
  const int64_t n = static_cast<int64_t>(input_keys.size() * num_offsets);
  if (n == 0) {
    return stats;
  }
  DeviceVector<uint64_t> candidates(static_cast<size_t>(n), device.memory());
  for (size_t i = 0; i < candidates.size(); ++i) {
    candidates[i] = input_keys[i % input_keys.size()] + (i / input_keys.size());
  }
  constexpr int64_t kItemsPerBlock = 1024;
  const int64_t blocks = (n + kItemsPerBlock - 1) / kItemsPerBlock;
  static const KernelId kDilateCandidates = KernelId::Intern("engine/coords/dilate_candidates");
  stats += device.Launch(kDilateCandidates, LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
    int64_t begin = ctx.block_index() * kItemsPerBlock;
    int64_t end = std::min(begin + kItemsPerBlock, n);
    ctx.GlobalRead(&candidates[static_cast<size_t>(begin)],
                   static_cast<size_t>(end - begin) * sizeof(uint64_t));
    ctx.Compute(static_cast<uint64_t>(end - begin) * 4);
    ctx.GlobalWrite(&candidates[static_cast<size_t>(begin)],
                    static_cast<size_t>(end - begin) * sizeof(uint64_t));
  });
  if (sorted_engine) {
    stats += RadixSortCoordPairs(device, candidates, {}).kernels;
    static const KernelId kDilateUnique = KernelId::Intern("engine/coords/dilate_unique");
    stats += device.Launch(kDilateUnique, LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
      int64_t begin = ctx.block_index() * kItemsPerBlock;
      int64_t end = std::min(begin + kItemsPerBlock, n);
      ctx.GlobalRead(&candidates[static_cast<size_t>(begin)],
                     static_cast<size_t>(end - begin) * sizeof(uint64_t));
      ctx.Compute(static_cast<uint64_t>(end - begin));
      int64_t share = num_unique * (end - begin) / n;
      ctx.GlobalWrite(&candidates[static_cast<size_t>(begin)],
                      static_cast<size_t>(share) * sizeof(uint64_t));
    });
  } else {
    DeviceVector<uint64_t> unique = candidates;
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    std::unique_ptr<HashTableBase> table;
    stats += BuildEngineHashTable(device, HashTableKind::kCuckoo, unique, &table);
    DeviceVector<uint32_t> results(candidates.size(), device.memory());
    stats += table->Query(device, candidates, results);
  }
  return stats;
}

// Charges the coordinate-deduplication work that a strided layer's output
// generation costs (Eq. 1 removes duplicates). Minuet sorts the |P|
// downsampled candidates and compacts runs; hash engines insert the
// candidates into a fresh table and compact it. The functional result comes
// from DownsampleCoords; this accounts for the kernels behind it.
KernelStats ChargeDownsampleDedup(Device& device, std::span<const uint64_t> input_keys,
                                  int32_t step, int64_t num_unique, bool sorted_engine) {
  KernelStats stats;
  const int64_t n = static_cast<int64_t>(input_keys.size());
  if (n == 0) {
    return stats;
  }
  // Candidate generation: floor-snap every input coordinate.
  DeviceVector<uint64_t> candidates(static_cast<size_t>(n), device.memory());
  constexpr int64_t kItemsPerBlock = 1024;
  const int64_t blocks = (n + kItemsPerBlock - 1) / kItemsPerBlock;
  static const KernelId kDownsampleCandidates = KernelId::Intern("engine/coords/downsample_candidates");
  stats += device.Launch(kDownsampleCandidates, LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
    int64_t begin = ctx.block_index() * kItemsPerBlock;
    int64_t end = std::min(begin + kItemsPerBlock, n);
    ctx.GlobalRead(&input_keys[static_cast<size_t>(begin)],
                   static_cast<size_t>(end - begin) * sizeof(uint64_t));
    for (int64_t i = begin; i < end; ++i) {
      Coord3 c = UnpackCoord(input_keys[static_cast<size_t>(i)]);
      candidates[static_cast<size_t>(i)] =
          PackCoord(Coord3{FloorDiv(c.x, step) * step, FloorDiv(c.y, step) * step,
                           FloorDiv(c.z, step) * step});
    }
    ctx.Compute(static_cast<uint64_t>(end - begin) * 6);
    ctx.GlobalWrite(&candidates[static_cast<size_t>(begin)],
                    static_cast<size_t>(end - begin) * sizeof(uint64_t));
  });

  if (sorted_engine) {
    // Sort + adjacent-unique compaction.
    stats += RadixSortCoordPairs(device, candidates, {}).kernels;
    static const KernelId kDownsampleUnique = KernelId::Intern("engine/coords/downsample_unique");
    stats += device.Launch(kDownsampleUnique, LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
      int64_t begin = ctx.block_index() * kItemsPerBlock;
      int64_t end = std::min(begin + kItemsPerBlock, n);
      ctx.GlobalRead(&candidates[static_cast<size_t>(begin)],
                     static_cast<size_t>(end - begin) * sizeof(uint64_t));
      ctx.Compute(static_cast<uint64_t>(end - begin));
      int64_t share = num_unique * (end - begin) / n;
      ctx.GlobalWrite(&candidates[static_cast<size_t>(begin)],
                      static_cast<size_t>(share) * sizeof(uint64_t));
    });
  } else {
    // Hash-based dedup: insert every candidate (duplicates probe and bail),
    // then compact the table. Modelled as a build over the unique set plus a
    // probe pass over all candidates.
    DeviceVector<uint64_t> unique = candidates;
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    std::unique_ptr<HashTableBase> table;
    stats += BuildEngineHashTable(device, HashTableKind::kCuckoo, unique, &table);
    DeviceVector<uint32_t> results(candidates.size(), device.memory());
    stats += table->Query(device, candidates, results);
  }
  return stats;
}

}  // namespace

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kMinuet:
      return "Minuet";
    case EngineKind::kTorchSparse:
      return "TorchSparse";
    case EngineKind::kMinkowski:
      return "MinkowskiEngine";
  }
  return "unknown";
}

StepBreakdown& StepBreakdown::operator+=(const StepBreakdown& other) {
  map_build += other.map_build;
  map_query += other.map_query;
  map_delta += other.map_delta;
  metadata += other.metadata;
  gather += other.gather;
  gemm += other.gemm;
  scatter += other.scatter;
  elementwise += other.elementwise;
  launches += other.launches;
  gemm_kernels += other.gemm_kernels;
  padded_rows += other.padded_rows;
  actual_rows += other.actual_rows;
  return *this;
}

Engine::Engine(const EngineConfig& config, const DeviceConfig& device_config)
    : config_(config),
      device_config_(device_config),
      device_(std::make_unique<Device>(device_config)) {}

void Engine::Prepare(const Network& network, uint64_t seed) {
  network_ = network;
  prepared_ = true;
  ++plan_generation_;  // new weights: cached plans must not be replayed
  conv_weights_.clear();
  linear_weights_.clear();
  layer_tiles_.clear();

  uint64_t state = seed;
  for (const Instr& instr : network_.instrs) {
    if (instr.op == Instr::Op::kConv) {
      Pcg32 rng(SplitMix64(state), 17);
      ConvWeights weights;
      const int64_t n_off = instr.conv.NumOffsets();
      // He-style scale keeps activations in range through deep networks.
      float scale =
          std::sqrt(2.0f / static_cast<float>(instr.conv.c_in * std::max<int64_t>(n_off, 1)));
      for (int64_t k = 0; k < n_off; ++k) {
        FeatureMatrix w(instr.conv.c_in, instr.conv.c_out);
        for (int64_t a = 0; a < instr.conv.c_in; ++a) {
          for (int64_t b = 0; b < instr.conv.c_out; ++b) {
            w.At(a, b) = static_cast<float>(rng.NextGaussian()) * scale;
          }
        }
        weights.per_offset.push_back(std::move(w));
      }
      conv_weights_.push_back(std::move(weights));
      layer_tiles_.emplace_back(config_.fixed_tile, config_.fixed_tile);
    } else if (instr.op == Instr::Op::kLinear) {
      Pcg32 rng(SplitMix64(state), 19);
      // Shape resolved at Prepare time from the preceding conv channels is
      // not tracked here; the linear head infers c_in at Run time, so store
      // the RNG seed material instead via a 0x0 placeholder replaced lazily.
      linear_weights_.emplace_back();
      (void)rng;
    }
  }
}

double Engine::Autotune(std::span<const PointCloud> samples) {
  if (config_.kind != EngineKind::kMinuet || !config_.features.autotuned_tiles ||
      samples.empty()) {
    return 0.0;
  }
  WallTimer timer;
  Device scratch(device_config_);

  // Per conv layer: accumulated (tile -> cycles) profiles across samples.
  std::vector<std::map<int, double>> gather_profiles(conv_weights_.size());
  std::vector<std::map<int, double>> scatter_profiles(conv_weights_.size());

  MinuetMapConfig map_cfg;
  map_cfg.source_block_size = config_.map_source_block;
  map_cfg.query_block_size = config_.map_query_block;
  MinuetMapBuilder builder(map_cfg);

  for (const PointCloud& sample : samples) {
    // Trace the coordinate flow of the network on the sample and profile
    // every non-trivial conv layer's Gather and Scatter tiles (Algorithm 2).
    auto root = std::make_shared<CoordLevel>();
    root->tensor_stride = 1;
    root->keys = ToDevice(scratch.memory(), PackCoords(sample.coords));
    std::sort(root->keys.begin(), root->keys.end());
    root->coords.reserve(root->keys.size());
    for (uint64_t k : root->keys) {
      root->coords.push_back(UnpackCoord(k));
    }

    LevelPtr level = root;
    int conv_index = 0;
    for (const Instr& instr : network_.instrs) {
      // Pooling reshapes the coordinate flow but has no tiles to tune.
      if ((instr.op == Instr::Op::kMaxPool || instr.op == Instr::Op::kAvgPool) &&
          instr.conv.stride > 1) {
        auto pooled = std::make_shared<CoordLevel>();
        pooled->tensor_stride = level->tensor_stride * instr.conv.stride;
        pooled->coords = DownsampleCoords(level->coords, pooled->tensor_stride);
        pooled->keys = ToDevice(scratch.memory(), PackCoords(pooled->coords));
        pooled->parent = level;
        level = pooled;
        continue;
      }
      if (instr.op != Instr::Op::kConv) {
        continue;
      }
      const ConvParams& conv = instr.conv;
      if (conv.kernel_size == 1 && conv.stride == 1 && !conv.transposed) {
        ++conv_index;  // 1x1 convs are plain GEMMs; no tiles to tune
        continue;
      }
      LevelPtr out_level;
      std::vector<Coord3> offsets =
          MakeWeightOffsets(conv.kernel_size,
                            conv.transposed ? level->tensor_stride / conv.stride
                                            : level->tensor_stride);
      std::vector<Coord3> query_offsets = offsets;
      if (conv.transposed) {
        MINUET_CHECK(level->parent != nullptr) << "transposed conv without a parent level";
        out_level = level->parent;
        for (Coord3& d : query_offsets) {
          d = Coord3{-d.x, -d.y, -d.z};
        }
      } else if (conv.generative) {
        out_level = std::make_shared<CoordLevel>();
        out_level->tensor_stride = level->tensor_stride;
        out_level->coords = DilateCoords(level->coords, offsets);
        out_level->keys = ToDevice(scratch.memory(), PackCoords(out_level->coords));
        out_level->parent = level;
      } else if (conv.stride > 1) {
        out_level = std::make_shared<CoordLevel>();
        out_level->tensor_stride = level->tensor_stride * conv.stride;
        out_level->coords = DownsampleCoords(level->coords, out_level->tensor_stride);
        out_level->keys = ToDevice(scratch.memory(), PackCoords(out_level->coords));
        out_level->parent = level;
      } else {
        out_level = level;
      }

      MapBuildInput in;
      in.source_keys = level->keys;
      in.output_keys = out_level->keys;
      in.offsets = query_offsets;
      in.source_sorted = true;
      in.output_sorted = true;
      MapBuildResult map = builder.Build(scratch, in);
      KernelMap kernel_map = CompactPositionTable(map.table, query_offsets, scratch.memory());
      GroupingPlan plan =
          PlanGemmGroups(kernel_map.EntryCounts(), GroupingStrategy::kSortedOrder,
                         config_.padding_threshold);
      MetadataTables tables = BuildMetadataTables(scratch, kernel_map, plan, level->size(),
                                                  out_level->size(), nullptr);
      AutotuneOutcome gather = AutotuneGatherTile(scratch, tables, conv.c_in);
      AutotuneOutcome scatter = AutotuneScatterTile(scratch, tables, conv.c_out);
      for (const auto& [tile, cycles] : gather.profile) {
        gather_profiles[static_cast<size_t>(conv_index)][tile] += cycles;
      }
      for (const auto& [tile, cycles] : scatter.profile) {
        scatter_profiles[static_cast<size_t>(conv_index)][tile] += cycles;
      }
      ++conv_index;
      level = out_level;
    }
  }

  // Pick the tile with the lowest total latency across the samples
  // (Algorithm 2 line 7).
  auto pick_best = [](const std::map<int, double>& profile, int fallback) {
    int best = fallback;
    double best_cycles = 0.0;
    for (const auto& [tile, cycles] : profile) {
      if (best_cycles == 0.0 || cycles < best_cycles) {
        best_cycles = cycles;
        best = tile;
      }
    }
    return best;
  };
  for (size_t i = 0; i < conv_weights_.size(); ++i) {
    if (!gather_profiles[i].empty()) {
      layer_tiles_[i] = {pick_best(gather_profiles[i], layer_tiles_[i].first),
                         pick_best(scatter_profiles[i], layer_tiles_[i].second)};
    }
  }
  ++plan_generation_;  // re-tuned tiles: cached plans are stale
  return timer.ElapsedMillis();
}

RunResult Engine::Run(const PointCloud& input) { return RunImpl(input, nullptr); }

RunResult Engine::RunImpl(const PointCloud& input, SessionCtx* ctx) {
  MINUET_CHECK(prepared_) << "Prepare() must run before Run()";
  MINUET_CHECK_EQ(input.channels(), network_.in_channels);
  Device& dev = *device_;
  RunResult result;

  trace::Span run_span("run", "run");
  if (run_span.active()) {
    run_span.Attr("engine", EngineKindName(config_.kind));
    run_span.Attr("num_points", input.num_points());
    run_span.Attr("warm", int64_t{ctx != nullptr && ctx->replay != nullptr});
  }
  // Stream-pool GEMM overlap makes a layer's reported simulated time smaller
  // than the sum of its kernels' cycles; accumulated here so the run span can
  // reconcile its children the same way the layer spans do.
  double run_overlap_saved = 0.0;

  const bool functional = config_.functional;
  const bool is_minuet = config_.kind == EngineKind::kMinuet;
  const bool use_sorted_map = is_minuet && config_.features.segmented_sorting;

  WorkspacePool* pool = ctx != nullptr ? ctx->pool : nullptr;
  ExecutionPlan* plan_record = ctx != nullptr ? ctx->record : nullptr;
  const ExecutionPlan* plan_replay = ctx != nullptr ? ctx->replay : nullptr;
  if (plan_record != nullptr) {
    plan_record->tiles = layer_tiles_;
  }
  // All activation matrices produced below come from the pool (zero-filled,
  // matching the fresh-allocation semantics) and go back to it when replaced,
  // so a warmed-up session allocates nothing per run.
  auto new_matrix = [&](int64_t rows, int64_t cols) {
    if (pool != nullptr) {
      return FeatureMatrix(rows, cols,
                           pool->Acquire(static_cast<size_t>(rows * cols), /*zero=*/true));
    }
    return FeatureMatrix(rows, cols, 0.0f, dev.memory());
  };
  auto recycle = [&](FeatureMatrix& m) {
    if (pool != nullptr && m.rows() * m.cols() > 0) {
      pool->Release(m.TakeStorage());
    }
  };

  // All engines consume the canonical (key-sorted) coordinate order so that
  // outputs are comparable. Minuet is the engine that *needs* sorted arrays,
  // so it alone pays for the input sort (Figure 9's one-time sort). A warm
  // session run reuses the cached sorted level, so the coordinate radix sort
  // drops out; the feature permutation is per-run work and stays.
  Activation act;
  {
    PointCloud sorted = input;
    SortPointCloud(sorted);
    {
      // Copy the caller's features into device memory (pooled when there is
      // a pool, so every later recycle() pairs with an Acquire).
      FeatureMatrix on_device = new_matrix(sorted.features.rows(), sorted.features.cols());
      std::copy(sorted.features.data(),
                sorted.features.data() + sorted.features.rows() * sorted.features.cols(),
                on_device.data());
      sorted.features = std::move(on_device);
    }
    const bool incremental_root = ctx != nullptr && ctx->incremental_root != nullptr;
    if (use_sorted_map) {
      trace::Span span("engine/input_sort", "step");
      if (plan_replay == nullptr && !incremental_root) {
        DeviceVector<uint64_t> keys = ToDevice(dev.memory(), PackCoords(input.coords));
        DeviceVector<uint32_t> vals(keys.size(), dev.memory());
        std::iota(vals.begin(), vals.end(), 0u);
        KernelStats sort_stats = RadixSortCoordPairs(dev, keys, vals).kernels;
        AccumulateKernel(result.total, &StepBreakdown::map_build, sort_stats);
      }
      // Features are permuted into sorted order alongside.
      AccumulateKernel(result.total, &StepBreakdown::map_build,
                       CopyColumns(dev, sorted.features, sorted.features, 0, false));
    }
    if (incremental_root) {
      // The caller maintained the sorted root across frames (delta merge
      // instead of a re-sort); its already-launched cost is attributed here
      // even on a warm replay — the kernels ran either way.
      result.total.map_delta += ctx->incremental_cycles;
      result.total.launches += ctx->incremental_launches;
    }
    if (plan_replay != nullptr) {
      act.level = plan_replay->root;
      MINUET_CHECK(act.level != nullptr) << "replayed plan has no root level";
    } else if (incremental_root) {
      act.level = ctx->incremental_root;
      // The invariant the whole incremental path rests on: the maintained
      // level IS the sorted input, coordinate for coordinate.
      MINUET_CHECK(act.level->tensor_stride == 1 && act.level->coords == sorted.coords)
          << "incremental root diverged from the frame's sorted coordinates";
      if (plan_record != nullptr) {
        plan_record->root = act.level;
      }
    } else {
      act.level = std::make_shared<CoordLevel>();
      act.level->tensor_stride = 1;
      act.level->coords = std::move(sorted.coords);
      act.level->keys = ToDevice(dev.memory(), PackCoords(act.level->coords));
      if (plan_record != nullptr) {
        plan_record->root = act.level;
      }
    }
    act.features = std::move(sorted.features);  // pool-owned when pooled above
  }

  std::vector<Activation> slots(static_cast<size_t>(network_.NumSlots()));
  int conv_index = 0;
  size_t linear_index = 0;

  // Map builders are stateless; construct once.
  MinuetMapConfig map_cfg;
  map_cfg.source_block_size = config_.map_source_block;
  map_cfg.query_block_size = config_.map_query_block;
  map_cfg.double_traversal = config_.features.double_traversal;
  MinuetMapBuilder minuet_builder(map_cfg);
  HashMapBuilder cuckoo_builder(HashTableKind::kCuckoo);
  HashMapBuilder linear_builder(HashTableKind::kLinearProbe);

  for (const Instr& instr : network_.instrs) {
    switch (instr.op) {
      case Instr::Op::kConv: {
        const ConvParams& conv = instr.conv;
        const ConvWeights& weights = conv_weights_[static_cast<size_t>(conv_index)];
        Activation* target = instr.slot >= 0 ? &slots[static_cast<size_t>(instr.slot)] : &act;
        MINUET_CHECK_EQ(target->features.cols(), conv.c_in);

        LayerRecord record;
        record.conv_index = conv_index;
        record.params = conv;
        record.num_inputs = target->level->size();
        StepBreakdown layer;
        trace::Span layer_span;
        if (trace::Span::Enabled()) {
          layer_span = trace::Span("conv" + std::to_string(conv_index), "layer");
        }
        double layer_overlap_saved = 0.0;

        if (conv.kernel_size == 1 && conv.stride == 1 && !conv.transposed) {
          // 1x1 stride-1 conv == one GEMM over the feature matrix.
          trace::Span span("engine/conv1x1", "step");
          FeatureMatrix out = new_matrix(target->features.rows(), conv.c_out);
          static const KernelId kConv1x1 = KernelId::Intern("engine/gemm/conv1x1");
          KernelStats gemm = dev.LaunchGemm(kConv1x1, target->features.rows(), conv.c_out,
                                            conv.c_in);
          AccumulateKernel(layer, &StepBreakdown::gemm, gemm);
          layer.gemm_kernels += 1;
          if (functional) {
            BlockedGemm(target->features.data(), weights.per_offset[0].data(), out.data(),
                        target->features.rows(), conv.c_in, conv.c_out);
          }
          recycle(target->features);
          target->features = std::move(out);
          record.num_outputs = target->level->size();
        } else {
          // Warm replay consumes the next cached conv step; cold sessions
          // append one. Both are per-instruction and in program order.
          const ConvStep* cached = nullptr;
          if (plan_replay != nullptr) {
            MINUET_CHECK_LT(ctx->conv_cursor, plan_replay->conv_steps.size())
                << "replayed plan does not match the network";
            cached = &plan_replay->conv_steps[ctx->conv_cursor++];
          }
          ConvStep* step = nullptr;
          if (plan_record != nullptr) {
            plan_record->conv_steps.emplace_back();
            step = &plan_record->conv_steps.back();
          }

          LevelPtr out_level;
          KernelMap built_map;             // cold path only
          const KernelMap* kernel_map;     // what GMaS executes
          if (cached != nullptr) {
            // The entire Map step — output-coordinate generation, map build,
            // queries, compaction — is a pure function of the coordinate set
            // and is replayed from the plan.
            out_level = cached->out_level;
            kernel_map = cached->kernel_map.get();
          } else {
            // Resolve the output coordinate level. Check the parent before
            // deriving offsets: a transposed conv with no encoder level would
            // otherwise die on tensor_stride / stride == 0 with an unrelated
            // message.
            if (conv.transposed) {
              MINUET_CHECK(target->level->parent != nullptr)
                  << "transposed conv without a matching encoder level";
            }
            std::vector<Coord3> offsets = MakeWeightOffsets(
                conv.kernel_size, conv.transposed ? target->level->tensor_stride / conv.stride
                                                  : target->level->tensor_stride);
            std::vector<Coord3> query_offsets = offsets;
            if (conv.transposed) {
              out_level = target->level->parent;
              // Transposed map: entry (p, q, d) when q = p + d, i.e. the normal
              // builder with mirrored offsets; rows keep the weight order.
              for (Coord3& d : query_offsets) {
                d = Coord3{-d.x, -d.y, -d.z};
              }
            } else if (conv.generative) {
              MINUET_CHECK_EQ(conv.stride, 1) << "generative convs must have stride 1";
              out_level = std::make_shared<CoordLevel>();
              out_level->tensor_stride = target->level->tensor_stride;
              out_level->coords = DilateCoords(target->level->coords, offsets);
              out_level->keys = ToDevice(dev.memory(), PackCoords(out_level->coords));
              out_level->parent = target->level;
              // Coordinate generation: K^3 |P| candidates deduplicated.
              trace::Span span("engine/coords_dedup", "step");
              AccumulateKernel(layer, &StepBreakdown::map_build,
                               ChargeDilationDedup(dev, target->level->keys, offsets.size(),
                                                   out_level->size(), use_sorted_map));
            } else if (conv.stride > 1) {
              out_level = std::make_shared<CoordLevel>();
              out_level->tensor_stride = target->level->tensor_stride * conv.stride;
              out_level->coords =
                  DownsampleCoords(target->level->coords, out_level->tensor_stride);
              out_level->keys = ToDevice(dev.memory(), PackCoords(out_level->coords));
              out_level->parent = target->level;
              // Output-coordinate generation must deduplicate (Eq. 1).
              trace::Span span("engine/coords_dedup", "step");
              AccumulateKernel(layer, &StepBreakdown::map_build,
                               ChargeDownsampleDedup(dev, target->level->keys,
                                                     out_level->tensor_stride, out_level->size(),
                                                     use_sorted_map));
            } else {
              out_level = target->level;
            }

            // --- Map step.
            trace::Span map_span("engine/map", "step");
            MapBuildInput map_in;
            map_in.source_keys = target->level->keys;
            map_in.output_keys = out_level->keys;
            map_in.offsets = query_offsets;
            map_in.source_sorted = true;
            map_in.output_sorted = true;
            MapBuilderBase* map_builder;
            if (use_sorted_map) {
              map_builder = &minuet_builder;
            } else if (config_.kind == EngineKind::kMinkowski) {
              map_builder = &linear_builder;
            } else {
              map_builder = &cuckoo_builder;
            }
            MapBuildResult map = map_builder->Build(dev, map_in);
            AccumulateKernel(layer, &StepBreakdown::map_build, map.build_stats);
            AccumulateKernel(layer, &StepBreakdown::map_query, map.query_stats);
            built_map = CompactPositionTable(map.table, query_offsets, dev.memory());
            AccumulateKernel(layer, &StepBreakdown::map_query,
                             ChargeMapCompaction(dev, map.table, built_map.TotalEntries()));
            kernel_map = &built_map;
          }
          record.num_outputs = out_level->size();

          // --- GMaS step.
          FeatureMatrix out;
          if (config_.kind == EngineKind::kMinkowski) {
            GmasResult gmas = RunPerOffsetFused(dev, *kernel_map, target->features,
                                                weights.per_offset, out_level->size(), functional);
            AccumulateKernel(layer, &StepBreakdown::gather, gmas.stats.gather);
            AccumulateKernel(layer, &StepBreakdown::gemm, gmas.stats.gemm);
            layer.gemm_kernels += gmas.stats.plan.NumKernels();
            layer.actual_rows += gmas.stats.plan.actual_rows;
            if (pool != nullptr) {
              // The fused path allocates its own output; move it into pooled
              // storage so the recycle chain stays pool-owned throughout.
              out = new_matrix(gmas.output.rows(), gmas.output.cols());
              std::copy(gmas.output.data(),
                        gmas.output.data() + gmas.output.rows() * gmas.output.cols(), out.data());
            } else {
              out = std::move(gmas.output);
            }
          } else {
            GmasConfig gmas_cfg;
            bool sorted_grouping = is_minuet && config_.features.sorted_grouping;
            gmas_cfg.grouping = sorted_grouping ? GroupingStrategy::kSortedOrder
                                                : GroupingStrategy::kMapOrder;
            gmas_cfg.padding_threshold = config_.padding_threshold;
            auto [gather_tile, scatter_tile] =
                (plan_replay != nullptr ? plan_replay->tiles
                                        : layer_tiles_)[static_cast<size_t>(conv_index)];
            // Tiles must divide the channel counts; the fixed default may not.
            while (conv.c_in % gather_tile != 0) {
              --gather_tile;
            }
            while (conv.c_out % scatter_tile != 0) {
              --scatter_tile;
            }
            gmas_cfg.gather_tile = gather_tile;
            gmas_cfg.scatter_tile = scatter_tile;
            // The CUDA-stream pool (s = 4) ships with Minuet's GEMM grouping
            // (Section 5.2.2); TorchSparse issues its GEMMs on one stream.
            gmas_cfg.stream_pool_size = sorted_grouping ? config_.stream_pool_size : 1;
            gmas_cfg.functional = functional;
            gmas_cfg.precision = config_.precision;
            record.gather_tile = gather_tile;
            record.scatter_tile = scatter_tile;
            GmasScratch scratch;
            GmasScratch* scratch_ptr = nullptr;
            if (ctx != nullptr) {
              scratch.pool = pool;
              if (cached != nullptr && cached->grouping != nullptr) {
                scratch.plan = cached->grouping.get();
                scratch.tables = cached->tables.get();
              } else if (step != nullptr) {
                scratch.record_tables = true;
              }
              scratch_ptr = &scratch;
            }
            GmasResult gmas =
                RunGatherGemmScatter(dev, *kernel_map, target->features, weights.per_offset,
                                     out_level->size(), gmas_cfg, scratch_ptr);
            AccumulateKernel(layer, &StepBreakdown::metadata, gmas.stats.metadata);
            AccumulateKernel(layer, &StepBreakdown::metadata, gmas.stats.buffer_setup);
            AccumulateKernel(layer, &StepBreakdown::gather, gmas.stats.gather);
            layer.gemm += gmas.stats.gemm_stream_cycles;
            layer.launches += gmas.stats.gemm.num_launches;
            layer_overlap_saved = gmas.stats.gemm.cycles - gmas.stats.gemm_stream_cycles;
            AccumulateKernel(layer, &StepBreakdown::scatter, gmas.stats.scatter);
            layer.gemm_kernels += gmas.stats.plan.NumKernels();
            layer.padded_rows += gmas.stats.plan.padded_rows();
            layer.actual_rows += gmas.stats.plan.actual_rows;
            if (step != nullptr) {
              step->grouping = std::make_shared<GroupingPlan>(gmas.stats.plan);
              step->tables = gmas.tables;  // may be null for an empty map
            }
            out = std::move(gmas.output);
          }
          if (step != nullptr) {
            step->out_level = out_level;
            step->kernel_map = std::make_shared<KernelMap>(std::move(built_map));
          }
          recycle(target->features);
          target->features = std::move(out);
          target->level = out_level;
        }

        if (functional && config_.precision == Precision::kFp16) {
          RoundFeaturesToHalf(target->features);
        }
        if (layer_span.active()) {
          layer_span.Attr("conv_index", int64_t{conv_index});
          layer_span.Attr("c_in", conv.c_in);
          layer_span.Attr("c_out", conv.c_out);
          layer_span.Attr("kernel_size", int64_t{conv.kernel_size});
          layer_span.Attr("stride", int64_t{conv.stride});
          layer_span.Attr("num_inputs", record.num_inputs);
          layer_span.Attr("num_outputs", record.num_outputs);
          layer_span.Attr("sim_cycles", layer.TotalCycles());
          layer_span.Attr("overlap_saved_cycles", layer_overlap_saved);
          layer_span.Attr("padding_ratio", layer.PaddingOverhead());
          layer_span.Attr("launches", layer.launches);
          layer_span.Attr("gemm_kernels", layer.gemm_kernels);
        }
        run_overlap_saved += layer_overlap_saved;
        record.cycles = layer;
        result.total += layer;
        result.layers.push_back(std::move(record));
        ++conv_index;
        break;
      }
      case Instr::Op::kMaxPool:
      case Instr::Op::kAvgPool: {
        trace::Span step_span("engine/pool", "step");
        const ConvParams& pool_params = instr.conv;
        MINUET_CHECK(!pool_params.transposed && !pool_params.generative);
        const PoolStep* cached = nullptr;
        if (plan_replay != nullptr) {
          MINUET_CHECK_LT(ctx->pool_cursor, plan_replay->pool_steps.size())
              << "replayed plan does not match the network";
          cached = &plan_replay->pool_steps[ctx->pool_cursor++];
        }
        LevelPtr out_level;
        MapBuildResult map;               // cold path only
        const MapPositionTable* table;    // what the pool kernel reads
        if (cached != nullptr) {
          out_level = cached->out_level;
          table = cached->table.get();
        } else {
          if (pool_params.stride > 1) {
            out_level = std::make_shared<CoordLevel>();
            out_level->tensor_stride = act.level->tensor_stride * pool_params.stride;
            out_level->coords = DownsampleCoords(act.level->coords, out_level->tensor_stride);
            out_level->keys = ToDevice(dev.memory(), PackCoords(out_level->coords));
            out_level->parent = act.level;
            AccumulateKernel(result.total, &StepBreakdown::map_build,
                             ChargeDownsampleDedup(dev, act.level->keys,
                                                   out_level->tensor_stride, out_level->size(),
                                                   use_sorted_map));
          } else {
            out_level = act.level;
          }
          std::vector<Coord3> offsets =
              MakeWeightOffsets(pool_params.kernel_size, act.level->tensor_stride);
          MapBuildInput map_in;
          map_in.source_keys = act.level->keys;
          map_in.output_keys = out_level->keys;
          map_in.offsets = offsets;
          map_in.source_sorted = true;
          map_in.output_sorted = true;
          MapBuilderBase* map_builder;
          if (use_sorted_map) {
            map_builder = &minuet_builder;
          } else if (config_.kind == EngineKind::kMinkowski) {
            map_builder = &linear_builder;
          } else {
            map_builder = &cuckoo_builder;
          }
          map = map_builder->Build(dev, map_in);
          AccumulateKernel(result.total, &StepBreakdown::map_build, map.build_stats);
          AccumulateKernel(result.total, &StepBreakdown::map_query, map.query_stats);
          table = &map.table;
        }
        FeatureMatrix pooled = new_matrix(out_level->size(), act.features.cols());
        AccumulateKernel(result.total, &StepBreakdown::elementwise,
                         SparsePoolKernel(dev, *table, act.features, pooled,
                                          instr.op == Instr::Op::kMaxPool ? PoolMode::kMax
                                                                          : PoolMode::kAverage,
                                          functional));
        if (plan_record != nullptr) {
          PoolStep step;
          step.out_level = out_level;
          step.table = std::make_shared<MapPositionTable>(std::move(map.table));
          plan_record->pool_steps.push_back(std::move(step));
        }
        recycle(act.features);
        act.features = std::move(pooled);
        act.level = out_level;
        break;
      }
      case Instr::Op::kBnRelu: {
        trace::Span step_span("engine/elementwise", "step");
        AccumulateKernel(result.total, &StepBreakdown::elementwise,
                         ApplyBnRelu(dev, act.features, functional));
        if (functional && config_.precision == Precision::kFp16) {
          RoundFeaturesToHalf(act.features);
        }
        break;
      }
      case Instr::Op::kResidualSave:
      case Instr::Op::kSkipSave: {
        trace::Span step_span("engine/elementwise", "step");
        MINUET_CHECK_GE(instr.slot, 0);
        Activation& slot = slots[static_cast<size_t>(instr.slot)];
        slot.level = act.level;
        recycle(slot.features);  // a re-used slot returns its old slab first
        slot.features = new_matrix(act.features.rows(), act.features.cols());
        AccumulateKernel(result.total, &StepBreakdown::elementwise,
                         CopyColumns(dev, act.features, slot.features, 0, functional));
        break;
      }
      case Instr::Op::kResidualAdd: {
        trace::Span step_span("engine/elementwise", "step");
        MINUET_CHECK_GE(instr.slot, 0);
        Activation& slot = slots[static_cast<size_t>(instr.slot)];
        MINUET_CHECK(slot.level == act.level) << "residual add across coordinate levels";
        AccumulateKernel(result.total, &StepBreakdown::elementwise,
                         AddInto(dev, act.features, slot.features, functional));
        break;
      }
      case Instr::Op::kConcatSkip: {
        trace::Span step_span("engine/elementwise", "step");
        MINUET_CHECK_GE(instr.slot, 0);
        Activation& slot = slots[static_cast<size_t>(instr.slot)];
        MINUET_CHECK(slot.level == act.level) << "concat across coordinate levels";
        FeatureMatrix merged =
            new_matrix(act.features.rows(), act.features.cols() + slot.features.cols());
        AccumulateKernel(result.total, &StepBreakdown::elementwise,
                         CopyColumns(dev, act.features, merged, 0, functional));
        AccumulateKernel(result.total, &StepBreakdown::elementwise,
                         CopyColumns(dev, slot.features, merged, act.features.cols(), functional));
        recycle(act.features);
        act.features = std::move(merged);
        break;
      }
      case Instr::Op::kGlobalAvgPool: {
        trace::Span step_span("engine/elementwise", "step");
        FeatureMatrix pooled = new_matrix(1, act.features.cols());
        AccumulateKernel(result.total, &StepBreakdown::elementwise,
                         GlobalAvgPool(dev, act.features, pooled, functional));
        recycle(act.features);
        act.features = std::move(pooled);
        auto pooled_level = std::make_shared<CoordLevel>();
        pooled_level->tensor_stride = act.level->tensor_stride;
        pooled_level->coords = {Coord3{0, 0, 0}};
        pooled_level->keys = DeviceVector<uint64_t>(1, PackCoord(Coord3{0, 0, 0}), dev.memory());
        act.level = pooled_level;
        break;
      }
      case Instr::Op::kLinear: {
        trace::Span step_span("engine/head", "step");
        const int64_t c_in = act.features.cols();
        FeatureMatrix& w = linear_weights_[linear_index];
        if (w.rows() != c_in || w.cols() != instr.linear_out) {
          // Lazily materialise the head weights now that c_in is known.
          Pcg32 rng(0x11ead + linear_index, 23);
          w = FeatureMatrix(c_in, instr.linear_out);
          float scale = std::sqrt(2.0f / static_cast<float>(c_in));
          for (int64_t a = 0; a < c_in; ++a) {
            for (int64_t b = 0; b < instr.linear_out; ++b) {
              w.At(a, b) = static_cast<float>(rng.NextGaussian()) * scale;
            }
          }
        }
        FeatureMatrix out = new_matrix(act.features.rows(), instr.linear_out);
        static const KernelId kLinearHead = KernelId::Intern("engine/gemm/linear_head");
        KernelStats gemm =
            dev.LaunchGemm(kLinearHead, act.features.rows(), instr.linear_out, c_in);
        AccumulateKernel(result.total, &StepBreakdown::gemm, gemm);
        if (functional) {
          BlockedGemm(act.features.data(), w.data(), out.data(), act.features.rows(), c_in,
                      instr.linear_out);
        }
        recycle(act.features);
        act.features = std::move(out);
        ++linear_index;
        break;
      }
    }
  }

  // Copy the result out to host storage: the caller may keep it past this
  // engine's device memory, and a pooled slab must go back so the next warm
  // run reuses it. Every remaining slab returns, so the pool ends balanced.
  FeatureMatrix detached(act.features, /*memory=*/nullptr);
  recycle(act.features);
  for (Activation& slot : slots) {
    recycle(slot.features);
  }
  result.features = std::move(detached);
  result.coords = act.level->coords;
  if (run_span.active()) {
    run_span.Attr("sim_cycles", result.total.TotalCycles());
    run_span.Attr("overlap_saved_cycles", run_overlap_saved);
    run_span.Attr("launches", result.total.launches);
    run_span.Attr("sim_ms", device_config_.CyclesToMillis(result.total.TotalCycles()));
  }
  return result;
}

uint64_t Engine::PlanConfigFingerprint() const {
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  };
  uint64_t h = plan_generation_;
  h = mix(h, static_cast<uint64_t>(config_.kind));
  h = mix(h, static_cast<uint64_t>(config_.features.segmented_sorting) |
                 static_cast<uint64_t>(config_.features.double_traversal) << 1 |
                 static_cast<uint64_t>(config_.features.autotuned_tiles) << 2 |
                 static_cast<uint64_t>(config_.features.sorted_grouping) << 3);
  h = mix(h, static_cast<uint64_t>(config_.precision));
  h = mix(h, static_cast<uint64_t>(config_.map_source_block));
  h = mix(h, static_cast<uint64_t>(config_.map_query_block));
  uint64_t threshold_bits;
  static_assert(sizeof(threshold_bits) == sizeof(config_.padding_threshold));
  std::memcpy(&threshold_bits, &config_.padding_threshold, sizeof(threshold_bits));
  h = mix(h, threshold_bits);
  h = mix(h, static_cast<uint64_t>(config_.fixed_tile));
  h = mix(h, static_cast<uint64_t>(config_.stream_pool_size));
  h = mix(h, static_cast<uint64_t>(config_.functional));
  return h;
}

RunSession::RunSession(Engine& engine, size_t plan_capacity)
    : engine_(&engine), cache_(plan_capacity), pool_(engine.device().memory()) {}

RunResult RunSession::Run(const PointCloud& input) {
  return RunIncremental(input, nullptr, 0.0, 0);
}

RunResult RunSession::RunIncremental(const PointCloud& input, LevelPtr root, double delta_cycles,
                                     int64_t delta_launches) {
  PlanKey key;
  key.coord_fingerprint = FingerprintCoords(input.coords);
  key.config_fingerprint = engine_->PlanConfigFingerprint();
  key.device = engine_->device_config_.name;

  SessionCtx ctx;
  ctx.pool = &pool_;
  ctx.incremental_root = std::move(root);
  ctx.incremental_cycles = delta_cycles;
  ctx.incremental_launches = delta_launches;
  if (std::shared_ptr<const ExecutionPlan> plan = cache_.Lookup(key)) {
    ctx.replay = plan.get();
    ++warm_runs_;
    return engine_->RunImpl(input, &ctx);
  }
  auto recorded = std::make_shared<ExecutionPlan>();
  ctx.record = recorded.get();
  ++cold_runs_;
  RunResult result = engine_->RunImpl(input, &ctx);
  cache_.Insert(key, std::move(recorded));
  return result;
}

SessionStats RunSession::stats() const {
  SessionStats stats;
  stats.cold_runs = cold_runs_;
  stats.warm_runs = warm_runs_;
  stats.plan = cache_.stats();
  stats.pool = pool_.stats();
  return stats;
}

void RunSession::PublishMetrics(trace::MetricsRegistry& registry) const {
  const SessionStats s = stats();
  registry.GetCounter("session/cold_runs").Set(static_cast<int64_t>(s.cold_runs));
  registry.GetCounter("session/warm_runs").Set(static_cast<int64_t>(s.warm_runs));
  registry.GetCounter("plan_cache/hits").Set(static_cast<int64_t>(s.plan.hits));
  registry.GetCounter("plan_cache/misses").Set(static_cast<int64_t>(s.plan.misses));
  registry.GetCounter("plan_cache/evictions").Set(static_cast<int64_t>(s.plan.evictions));
  registry.GetCounter("plan_cache/size").Set(static_cast<int64_t>(cache_.size()));
  registry.GetCounter("workspace_pool/allocations")
      .Set(static_cast<int64_t>(s.pool.allocations));
  registry.GetCounter("workspace_pool/reuses").Set(static_cast<int64_t>(s.pool.reuses));
  registry.GetCounter("workspace_pool/bytes_allocated")
      .Set(static_cast<int64_t>(s.pool.bytes_allocated));
  registry.GetCounter("workspace_pool/high_water_bytes")
      .Set(static_cast<int64_t>(s.pool.high_water_bytes));
  registry.GetCounter("workspace_pool/outstanding").Set(s.pool.outstanding);
}

void PublishRunMetrics(const RunResult& result, const DeviceConfig& device_config,
                       trace::MetricsRegistry& registry) {
  for (const LayerRecord& layer : result.layers) {
    const std::string prefix = "engine/layer" + std::to_string(layer.conv_index) + "/";
    registry.GetGauge(prefix + "padding_ratio").Set(layer.cycles.PaddingOverhead());
    registry.GetGauge(prefix + "launches").Set(static_cast<double>(layer.cycles.launches));
    registry.GetGauge(prefix + "gemm_kernels")
        .Set(static_cast<double>(layer.cycles.gemm_kernels));
    registry.GetGauge(prefix + "sim_ms")
        .Set(device_config.CyclesToMillis(layer.cycles.TotalCycles()));
  }
  registry.GetGauge("engine/run/padding_ratio").Set(result.total.PaddingOverhead());
  registry.GetGauge("engine/run/launches").Set(static_cast<double>(result.total.launches));
  registry.GetGauge("engine/run/sim_ms")
      .Set(device_config.CyclesToMillis(result.total.TotalCycles()));
}

std::vector<RunResult> Engine::RunBatch(std::span<const PointCloud> batch) {
  MINUET_CHECK(!batch.empty());
  for (const Instr& instr : network_.instrs) {
    MINUET_CHECK(instr.op != Instr::Op::kGlobalAvgPool && instr.op != Instr::Op::kLinear)
        << "RunBatch does not support pooling heads (they would mix clouds)";
  }

  // Spacing: larger than any coordinate extent plus the deepest kernel reach,
  // so no window can cross cloud boundaries. Downsampling only coarsens the
  // lattice, never moves points past their cloud's span.
  int32_t max_extent = 1;
  const int64_t c = batch[0].channels();
  int64_t total_points = 0;
  for (const PointCloud& cloud : batch) {
    MINUET_CHECK_EQ(cloud.channels(), c);
    total_points += cloud.num_points();
    for (const Coord3& p : cloud.coords) {
      max_extent = std::max({max_extent, std::abs(p.x), std::abs(p.y), std::abs(p.z)});
    }
  }
  // Round the pitch to a large power of two so downsampled cloud origins stay
  // on their own pitch multiples at every stride level.
  int64_t pitch64 = 1;
  while (pitch64 < static_cast<int64_t>(max_extent) * 2 + 4096) {
    pitch64 *= 2;
  }
  MINUET_CHECK_LT(pitch64 * static_cast<int64_t>(batch.size()), int64_t{kCoordMax})
      << "batch too large for the coordinate lattice";
  const int32_t pitch = static_cast<int32_t>(pitch64);

  PointCloud fused;
  fused.coords.reserve(static_cast<size_t>(total_points));
  fused.features = FeatureMatrix(total_points, c);
  int64_t row = 0;
  for (size_t b = 0; b < batch.size(); ++b) {
    int32_t shift = static_cast<int32_t>(b) * pitch;
    for (const Coord3& p : batch[b].coords) {
      fused.coords.push_back(Coord3{p.x + shift, p.y, p.z});
    }
    for (int64_t i = 0; i < batch[b].num_points(); ++i, ++row) {
      auto src = batch[b].features.Row(i);
      auto dst = fused.features.Row(row);
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }

  RunResult fused_result = Run(fused);

  // Split outputs back per cloud by x-range and undo the shift. Outputs are
  // key-sorted, so each cloud's rows are contiguous.
  std::vector<RunResult> results(batch.size());
  std::vector<int64_t> counts(batch.size(), 0);
  auto cloud_of = [&](const Coord3& q) {
    int32_t b = FloorDiv(q.x + pitch / 2, pitch);
    MINUET_CHECK(b >= 0 && b < static_cast<int32_t>(batch.size()))
        << "output coordinate outside every batch slot";
    return static_cast<size_t>(b);
  };
  for (const Coord3& q : fused_result.coords) {
    ++counts[cloud_of(q)];
  }
  for (size_t b = 0; b < batch.size(); ++b) {
    results[b].features = FeatureMatrix(counts[b], fused_result.features.cols());
    results[b].coords.reserve(static_cast<size_t>(counts[b]));
    // Batch-level stats are shared: attribute proportionally by output rows.
    results[b].total = fused_result.total;
  }
  std::vector<int64_t> cursor(batch.size(), 0);
  for (size_t i = 0; i < fused_result.coords.size(); ++i) {
    Coord3 q = fused_result.coords[i];
    size_t b = cloud_of(q);
    results[b].coords.push_back(
        Coord3{q.x - static_cast<int32_t>(b) * pitch, q.y, q.z});
    auto src = fused_result.features.Row(static_cast<int64_t>(i));
    auto dst = results[b].features.Row(cursor[b]++);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return results;
}

}  // namespace minuet
