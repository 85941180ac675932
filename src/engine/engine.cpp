#include "src/engine/engine.h"

#include <algorithm>
#include <cmath>
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

constexpr int64_t kDedupItemsPerBlock = 1024;

int64_t DedupBlocks(int64_t n) { return (n + kDedupItemsPerBlock - 1) / kDedupItemsPerBlock; }

// The shared tail of the two dedup charges below: compacts the `candidates`
// down to their `num_unique` distinct keys, adding the kernels to `stats`.
// Sorted engines sort and compact adjacent runs (`unique_kernel`); hash
// engines insert every candidate into a fresh table (duplicates probe and
// bail) and compact it, modelled as a build over the unique set plus a probe
// pass over all candidates.
void ChargeDedupCompaction(Device& device, DeviceVector<uint64_t>& candidates, int64_t num_unique,
                           bool sorted_engine, KernelId unique_kernel, KernelStats& stats) {
  const int64_t n = static_cast<int64_t>(candidates.size());
  if (sorted_engine) {
    stats += RadixSortCoordPairs(device, candidates, {}).kernels;
    stats += device.Launch(unique_kernel, LaunchDims{DedupBlocks(n), 128, 0}, [&](BlockCtx& ctx) {
      int64_t begin = ctx.block_index() * kDedupItemsPerBlock;
      int64_t end = std::min(begin + kDedupItemsPerBlock, n);
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
}

// Charges coordinate generation of a generative conv: K^3 |P| dilated
// candidates deduplicated. Approximated as the sorted-engine sort over the
// candidate count or a hash pass of the same volume.
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
  static const KernelId kDilateCandidates = KernelId::Intern("engine/coords/dilate_candidates");
  static const KernelId kDilateUnique = KernelId::Intern("engine/coords/dilate_unique");
  stats += device.Launch(kDilateCandidates, LaunchDims{DedupBlocks(n), 128, 0}, [&](BlockCtx& ctx) {
    int64_t begin = ctx.block_index() * kDedupItemsPerBlock;
    int64_t end = std::min(begin + kDedupItemsPerBlock, n);
    ctx.GlobalRead(&candidates[static_cast<size_t>(begin)],
                   static_cast<size_t>(end - begin) * sizeof(uint64_t));
    ctx.Compute(static_cast<uint64_t>(end - begin) * 4);
    ctx.GlobalWrite(&candidates[static_cast<size_t>(begin)],
                    static_cast<size_t>(end - begin) * sizeof(uint64_t));
  });
  ChargeDedupCompaction(device, candidates, num_unique, sorted_engine, kDilateUnique, stats);
  return stats;
}

// Charges the coordinate-deduplication work that a strided layer's output
// generation costs (Eq. 1 removes duplicates): floor-snap every input
// coordinate, then compact. The functional result comes from
// DownsampleCoords; this accounts for the kernels behind it.
KernelStats ChargeDownsampleDedup(Device& device, std::span<const uint64_t> input_keys,
                                  int32_t step, int64_t num_unique, bool sorted_engine) {
  KernelStats stats;
  const int64_t n = static_cast<int64_t>(input_keys.size());
  if (n == 0) {
    return stats;
  }
  DeviceVector<uint64_t> candidates(static_cast<size_t>(n), device.memory());
  static const KernelId kDownsampleCandidates = KernelId::Intern("engine/coords/downsample_candidates");
  static const KernelId kDownsampleUnique = KernelId::Intern("engine/coords/downsample_unique");
  const LaunchDims dims{DedupBlocks(n), 128, 0};
  stats += device.Launch(kDownsampleCandidates, dims, [&](BlockCtx& ctx) {
    int64_t begin = ctx.block_index() * kDedupItemsPerBlock;
    int64_t end = std::min(begin + kDedupItemsPerBlock, n);
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
  ChargeDedupCompaction(device, candidates, num_unique, sorted_engine, kDownsampleUnique, stats);
  return stats;
}

// A coordinate level derived from `parent` (null for a root); keys in `memory`.
LevelPtr NewLevel(LevelPtr parent, int32_t tensor_stride, std::vector<Coord3> coords,
                  DeviceMemory* memory) {
  auto level = std::make_shared<CoordLevel>();
  level->tensor_stride = tensor_stride;
  level->coords = std::move(coords);
  level->keys = ToDevice(memory, PackCoords(level->coords));
  level->parent = std::move(parent);
  return level;
}

// Where a conv or pooling window over some level writes, and the offsets its
// kernel map queries (map rows keep the weight order).
struct OutLevel {
  LevelPtr level;
  std::vector<Coord3> query_offsets;
  // Dilated or downsampled here: the caller charges the coordinate dedup.
  bool generated = false;
};

// The one derivation of the coordinate flow, shared by the conv and pooling
// executors and Autotune. Strided windows downsample, generative convs
// dilate, transposed convs return to the encoder level they came from, and
// everything else keeps `level`. New keys go to `memory`.
OutLevel ResolveOutLevel(const LevelPtr& level, const ConvParams& conv, DeviceMemory* memory) {
  // Check the parent before deriving offsets: a transposed conv with no
  // encoder level would otherwise die on tensor_stride / stride == 0 with an
  // unrelated message.
  if (conv.transposed) {
    MINUET_CHECK(level->parent != nullptr) << "transposed conv without a matching encoder level";
  }
  OutLevel out;
  out.query_offsets = MakeWeightOffsets(
      conv.kernel_size,
      conv.transposed ? level->tensor_stride / conv.stride : level->tensor_stride);
  if (conv.transposed) {
    // Transposed map: entry (p, q, d) when q = p + d, i.e. the normal builder
    // with mirrored offsets.
    out.level = level->parent;
    for (Coord3& d : out.query_offsets) {
      d = Coord3{-d.x, -d.y, -d.z};
    }
  } else if (conv.generative) {
    MINUET_CHECK_EQ(conv.stride, 1) << "generative convs must have stride 1";
    out.level = NewLevel(level, level->tensor_stride,
                         DilateCoords(level->coords, out.query_offsets), memory);
    out.generated = true;
  } else if (conv.stride > 1) {
    const int32_t tensor_stride = level->tensor_stride * conv.stride;
    out.level = NewLevel(level, tensor_stride, DownsampleCoords(level->coords, tensor_stride),
                         memory);
    out.generated = true;
  } else {
    out.level = level;
  }
  return out;
}

MapBuildResult BuildMap(MapBuilderBase& builder, Device& device, const CoordLevel& source,
                        const OutLevel& out) {
  MapBuildInput in;
  in.source_keys = source.keys;
  in.output_keys = out.level->keys;
  in.offsets = out.query_offsets;
  in.source_sorted = true;
  in.output_sorted = true;
  return builder.Build(device, in);
}

// 1x1 stride-1 conv == one GEMM over the feature matrix: no map, no tiles.
bool IsPlainGemm(const ConvParams& conv) {
  return conv.kernel_size == 1 && conv.stride == 1 && !conv.transposed;
}

FeatureMatrix GaussianMatrix(Pcg32& rng, int64_t rows, int64_t cols, float scale) {
  FeatureMatrix w(rows, cols);
  for (int64_t a = 0; a < rows; ++a) {
    for (int64_t b = 0; b < cols; ++b) {
      w.At(a, b) = static_cast<float>(rng.NextGaussian()) * scale;
    }
  }
  return w;
}

// One plan-backed instruction (a sparse conv or a pooling): warm replay takes
// the next cached step, anything else derives it; `execute` then runs the
// data-dependent kernels over it (filling in what they build), and a cold
// session appends the step to the plan it records. Steps are taken and
// recorded per instruction, in program order.
template <typename Step, typename Derive, typename Execute>
void RunPlanStep(SessionCtx& ctx, std::vector<Step> ExecutionPlan::*steps,
                 size_t SessionCtx::*cursor, Derive derive, Execute execute) {
  Step step;
  if (ctx.replay != nullptr) {
    const std::vector<Step>& cached = ctx.replay->*steps;
    MINUET_CHECK_LT(ctx.*cursor, cached.size()) << "replayed plan does not match the network";
    step = cached[(ctx.*cursor)++];
  } else {
    step = derive();
  }
  execute(step);
  if (ctx.record != nullptr) {
    (ctx.record->*steps).push_back(std::move(step));
  }
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

bool EngineKindForPreset(const std::string& preset, EngineKind* out) {
  if (preset == "minuet") {
    *out = EngineKind::kMinuet;
  } else if (preset == "torchsparse") {
    *out = EngineKind::kTorchSparse;
  } else if (preset == "minkowski") {
    *out = EngineKind::kMinkowski;
  } else {
    return false;
  }
  return true;
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
      device_(std::make_unique<Device>(device_config)) {
  const bool is_minuet = config_.kind == EngineKind::kMinuet;
  strategy_.sorted_coords = is_minuet && config_.features.segmented_sorting;
  if (strategy_.sorted_coords) {
    MinuetMapConfig map_cfg;
    map_cfg.double_traversal = config_.features.double_traversal;
    strategy_.map_builder = std::make_unique<MinuetMapBuilder>(map_cfg);
  } else {
    strategy_.map_builder = std::make_unique<HashMapBuilder>(
        config_.kind == EngineKind::kMinkowski ? HashTableKind::kLinearProbe
                                               : HashTableKind::kCuckoo);
  }
  strategy_.per_offset_fused = config_.kind == EngineKind::kMinkowski;
  const bool sorted_grouping = is_minuet && config_.features.sorted_grouping;
  strategy_.grouping =
      sorted_grouping ? GroupingStrategy::kSortedOrder : GroupingStrategy::kMapOrder;
  // TorchSparse issues its GEMMs on one stream.
  strategy_.stream_pool_size = sorted_grouping ? kStreamPoolSize : 1;
}

void Engine::Prepare(const Network& network, uint64_t seed) {
  network_ = network;
  prepared_ = true;
  ++plan_generation_;  // new weights: cached plans must not be replayed
  conv_weights_.clear();
  linear_weights_.clear();
  layer_tiles_.clear();

  // The channel flow is walked alongside: every conv's c_in is checked here,
  // and each head learns its c_in, before any run.
  int64_t channels = network_.in_channels;
  std::vector<int64_t> slot_channels(static_cast<size_t>(network_.NumSlots()), 0);
  auto slot = [&](const Instr& instr) -> int64_t& {
    MINUET_CHECK_GE(instr.slot, 0);
    return slot_channels[static_cast<size_t>(instr.slot)];
  };
  // Timing-only runs read no weight, so they store and draw none. The
  // per-layer SplitMix64 chain is derived the same way in both modes, so
  // functional weights stay bit-identical.
  const bool functional = config_.functional;
  uint64_t state = seed;
  for (const Instr& instr : network_.instrs) {
    switch (instr.op) {
      case Instr::Op::kConv: {
        const ConvParams& conv = instr.conv;
        int64_t& c = instr.slot >= 0 ? slot(instr) : channels;
        MINUET_CHECK_EQ(c, conv.c_in) << "conv" << conv_weights_.size() << " input channels";
        c = conv.c_out;
        const uint64_t layer_seed = SplitMix64(state);
        ConvWeights weights;
        if (functional) {
          Pcg32 rng(layer_seed, 17);
          const int64_t n_off = conv.NumOffsets();
          // He-style scale keeps activations in range through deep networks.
          const float scale =
              std::sqrt(2.0f / static_cast<float>(conv.c_in * std::max<int64_t>(n_off, 1)));
          for (int64_t k = 0; k < n_off; ++k) {
            weights.per_offset.push_back(GaussianMatrix(rng, conv.c_in, conv.c_out, scale));
          }
        }
        conv_weights_.push_back(std::move(weights));
        layer_tiles_.emplace_back(config_.fixed_tile, config_.fixed_tile);
        break;
      }
      case Instr::Op::kResidualSave:
      case Instr::Op::kSkipSave:
        slot(instr) = channels;
        break;
      case Instr::Op::kConcatSkip:
        channels += slot(instr);
        break;
      case Instr::Op::kLinear: {
        SplitMix64(state);  // the head's draw: keeps later layers' seeds in place
        if (functional) {
          Pcg32 rng(0x11ead + linear_weights_.size(), 23);
          linear_weights_.push_back(GaussianMatrix(rng, channels, instr.linear_out,
                                                   std::sqrt(2.0f / static_cast<float>(channels))));
        }
        channels = instr.linear_out;
        break;
      }
      default:
        break;
    }
  }
}

double Engine::Autotune(std::span<const PointCloud> samples) {
  if (config_.kind != EngineKind::kMinuet || !config_.features.autotuned_tiles ||
      samples.empty()) {
    return 0.0;
  }
  WallTimer timer;
  trace::Span span("engine/autotune", "step");
  Device scratch(device_config_);
  int64_t candidates = 0;

  // Per conv layer: accumulated (tile -> cycles) profiles across samples.
  std::vector<std::map<int, double>> gather_profiles(conv_weights_.size());
  std::vector<std::map<int, double>> scatter_profiles(conv_weights_.size());

  for (const PointCloud& sample : samples) {
    // Trace the coordinate flow of the network on the sample and profile
    // every non-trivial conv layer's Gather and Scatter tiles (Algorithm 2).
    // Only the tiles matter here, so no dedup or compaction is charged.
    auto root = std::make_shared<CoordLevel>();
    root->keys = ToDevice(scratch.memory(), PackCoords(sample.coords));
    std::sort(root->keys.begin(), root->keys.end());
    for (uint64_t k : root->keys) {
      root->coords.push_back(UnpackCoord(k));
    }
    LevelPtr level = root;
    int conv_index = 0;
    for (const Instr& instr : network_.instrs) {
      const bool pool = instr.op == Instr::Op::kMaxPool || instr.op == Instr::Op::kAvgPool;
      if (instr.op != Instr::Op::kConv && !pool) {
        continue;
      }
      const ConvParams& conv = instr.conv;
      if (!pool && IsPlainGemm(conv)) {
        ++conv_index;  // no tiles to tune
        continue;
      }
      OutLevel out = ResolveOutLevel(level, conv, scratch.memory());
      if (!pool) {
        MapBuildResult map = BuildMap(*strategy_.map_builder, scratch, *level, out);
        KernelMap kernel_map = CompactPositionTable(map.table, out.query_offsets, scratch.memory());
        GroupingPlan plan =
            PlanGemmGroups(kernel_map.EntryCounts(), GroupingStrategy::kSortedOrder);
        MetadataTables tables = BuildMetadataTables(scratch, kernel_map, plan, level->size(),
                                                    out.level->size(), nullptr);
        AutotuneOutcome gather = AutotuneGatherTile(scratch, tables, conv.c_in);
        AutotuneOutcome scatter = AutotuneScatterTile(scratch, tables, conv.c_out);
        candidates += static_cast<int64_t>(gather.profile.size() + scatter.profile.size());
        for (const auto& [tile, cycles] : gather.profile) {
          gather_profiles[static_cast<size_t>(conv_index)][tile] += cycles;
        }
        for (const auto& [tile, cycles] : scatter.profile) {
          scatter_profiles[static_cast<size_t>(conv_index)][tile] += cycles;
        }
        ++conv_index;
      }
      level = out.level;
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
  int64_t layers = 0;
  for (size_t i = 0; i < conv_weights_.size(); ++i) {
    if (!gather_profiles[i].empty()) {
      layer_tiles_[i] = {pick_best(gather_profiles[i], layer_tiles_[i].first),
                         pick_best(scatter_profiles[i], layer_tiles_[i].second)};
      ++layers;
    }
  }
  span.Attr("layers", layers);
  span.Attr("candidates", candidates);
  ++plan_generation_;  // re-tuned tiles: cached plans are stale
  return timer.ElapsedMillis();
}

// One run's state, threaded through the per-op executors. The session context
// is always there: Run() passes a default one, which behaves statelessly.
struct Engine::RunState {
  struct Activation {
    LevelPtr level;
    FeatureMatrix features;
  };

  RunState(const Engine& e, SessionCtx& c)
      : engine(e), dev(*e.device_), ctx(c), slots(static_cast<size_t>(e.network_.NumSlots())) {}

  const Engine& engine;
  Device& dev;
  SessionCtx& ctx;
  RunResult result;
  Activation act;
  std::vector<Activation> slots;
  // Stream-pool GEMM overlap makes a layer's reported simulated time smaller
  // than the sum of its kernels' cycles; accumulated here so the run span can
  // reconcile its children the same way the layer spans do.
  double overlap_saved = 0.0;
  int conv_index = 0;
  size_t linear_index = 0;

  // Activation matrices come from the session's pool when there is one and
  // go back to it when replaced, so a warmed-up session allocates nothing per
  // run. Functional runs get them zero-filled. Timing-only runs read and write
  // no payload, so theirs stay indeterminate and untouched; the device
  // allocation sequence is the same in both modes.
  FeatureMatrix NewMatrix(int64_t rows, int64_t cols) {
    if (ctx.pool != nullptr) {
      return FeatureMatrix(rows, cols,
                           ctx.pool->Acquire(static_cast<size_t>(rows * cols), functional()));
    }
    return functional() ? FeatureMatrix(rows, cols, 0.0f, dev.memory())
                        : FeatureMatrix::Uninitialized(rows, cols, dev.memory());
  }
  void Recycle(FeatureMatrix& m) {
    if (ctx.pool != nullptr && m.rows() * m.cols() > 0) {
      ctx.pool->Release(m.TakeStorage());
    }
  }
  void Replace(FeatureMatrix& features, FeatureMatrix next) {
    Recycle(features);
    features = std::move(next);
  }
  bool functional() const { return engine.config_.functional; }
  void RoundIfHalf(FeatureMatrix& features) const {
    if (functional() && engine.config_.precision == Precision::kFp16) {
      RoundFeaturesToHalf(features);
    }
  }

  void LoadInput(const PointCloud& input);
  void Conv(const Instr& instr);
  ConvStep MapConv(const ConvParams& conv, const LevelPtr& in, StepBreakdown& layer);
  FeatureMatrix Gmas(const ConvParams& conv, const FeatureMatrix& in, ConvStep& step,
                     LayerRecord& record, double& layer_overlap_saved);
  void Pool(const Instr& instr);
  void Elementwise(const Instr& instr);
  void Linear(const Instr& instr);
};

// All engines consume the canonical (key-sorted) coordinate order so that
// outputs are comparable. Minuet is the engine that *needs* sorted arrays, so
// it alone pays for the input sort (Figure 9's one-time sort). A warm session
// run reuses the cached sorted level, so the coordinate radix sort drops out;
// the feature permutation is per-run work and stays.
void Engine::RunState::LoadInput(const PointCloud& input) {
  PointCloud sorted = input;
  SortPointCloud(sorted);
  {
    // Copy the caller's features into device memory (pooled when there is a
    // pool, so every later Recycle() pairs with an Acquire). Timing-only runs
    // read no payload, so they only reserve the range.
    FeatureMatrix on_device = NewMatrix(sorted.features.rows(), sorted.features.cols());
    if (functional()) {
      std::copy(sorted.features.data(),
                sorted.features.data() + sorted.features.rows() * sorted.features.cols(),
                on_device.data());
    }
    sorted.features = std::move(on_device);
  }
  const bool warm = ctx.replay != nullptr;
  const bool incremental = ctx.incremental_root != nullptr;
  if (engine.strategy_.sorted_coords) {
    trace::Span span("engine/input_sort", "step");
    if (!warm && !incremental) {
      DeviceVector<uint64_t> keys = ToDevice(dev.memory(), PackCoords(input.coords));
      DeviceVector<uint32_t> vals(keys.size(), dev.memory());
      std::iota(vals.begin(), vals.end(), 0u);
      AccumulateKernel(result.total, &StepBreakdown::map_build,
                       RadixSortCoordPairs(dev, keys, vals).kernels);
    }
    // Features are permuted into sorted order alongside.
    AccumulateKernel(result.total, &StepBreakdown::map_build,
                     CopyColumns(dev, sorted.features, sorted.features, 0, false));
  }
  if (incremental) {
    // The caller maintained the sorted root across frames (delta merge
    // instead of a re-sort); its already-launched cost is attributed here
    // even on a warm replay — the kernels ran either way.
    result.total.map_delta += ctx.incremental_cycles;
    result.total.launches += ctx.incremental_launches;
  }
  if (warm) {
    act.level = ctx.replay->root;
    MINUET_CHECK(act.level != nullptr) << "replayed plan has no root level";
  } else if (incremental) {
    act.level = ctx.incremental_root;
    // The invariant the whole incremental path rests on: the maintained
    // level IS the sorted input, coordinate for coordinate.
    MINUET_CHECK(act.level->tensor_stride == 1 && act.level->coords == sorted.coords)
        << "incremental root diverged from the frame's sorted coordinates";
  } else {
    act.level = NewLevel(nullptr, 1, std::move(sorted.coords), dev.memory());
  }
  if (ctx.record != nullptr) {
    ctx.record->root = act.level;
  }
  act.features = std::move(sorted.features);  // pool-owned when pooled above
}

void Engine::RunState::Conv(const Instr& instr) {
  const ConvParams& conv = instr.conv;
  Activation& target = instr.slot >= 0 ? slots[static_cast<size_t>(instr.slot)] : act;
  MINUET_CHECK_EQ(target.features.cols(), conv.c_in);

  LayerRecord record;
  record.conv_index = conv_index;
  record.params = conv;
  record.num_inputs = target.level->size();
  StepBreakdown& layer = record.cycles;
  trace::Span layer_span;
  if (trace::Span::Enabled()) {
    layer_span = trace::Span("conv" + std::to_string(conv_index), "layer");
  }
  double layer_overlap_saved = 0.0;

  if (IsPlainGemm(conv)) {
    trace::Span span("engine/conv1x1", "step");
    FeatureMatrix out = NewMatrix(target.features.rows(), conv.c_out);
    static const KernelId kConv1x1 = KernelId::Intern("engine/gemm/conv1x1");
    auto multiply = [&] {
      if (functional()) {
        BlockedGemm(target.features.data(),
                    engine.conv_weights_[static_cast<size_t>(conv_index)].per_offset[0].data(),
                    out.data(), target.features.rows(), conv.c_in, conv.c_out);
      }
    };
    AccumulateKernel(layer, &StepBreakdown::gemm,
                     dev.LaunchGemm(kConv1x1, target.features.rows(), conv.c_out, conv.c_in,
                                    /*batch=*/1, /*efficiency=*/1.0, /*bytes_per_element=*/4.0,
                                    multiply));
    layer.gemm_kernels += 1;
    Replace(target.features, std::move(out));
    record.num_outputs = target.level->size();
  } else {
    RunPlanStep(
        ctx, &ExecutionPlan::conv_steps, &SessionCtx::conv_cursor,
        [&] { return MapConv(conv, target.level, layer); },
        [&](ConvStep& step) {
          record.num_outputs = step.out_level->size();
          Replace(target.features, Gmas(conv, target.features, step, record, layer_overlap_saved));
          target.level = step.out_level;
        });
  }

  RoundIfHalf(target.features);
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
  overlap_saved += layer_overlap_saved;
  result.total += layer;
  result.layers.push_back(std::move(record));
  ++conv_index;
}

// The cold Map step of a sparse conv — output-coordinate generation, map
// build, queries, compaction — a pure function of the coordinate set, which
// is why warm runs replay it from the plan.
ConvStep Engine::RunState::MapConv(const ConvParams& conv, const LevelPtr& in,
                                   StepBreakdown& layer) {
  OutLevel out = ResolveOutLevel(in, conv, dev.memory());
  const bool sorted = engine.strategy_.sorted_coords;
  if (out.generated) {
    trace::Span span("engine/coords_dedup", "step");
    AccumulateKernel(layer, &StepBreakdown::map_build,
                     conv.generative
                         ? ChargeDilationDedup(dev, in->keys, out.query_offsets.size(),
                                               out.level->size(), sorted)
                         : ChargeDownsampleDedup(dev, in->keys, out.level->tensor_stride,
                                                 out.level->size(), sorted));
  }
  trace::Span map_span("engine/map", "step");
  MapBuildResult map = BuildMap(*engine.strategy_.map_builder, dev, *in, out);
  AccumulateKernel(layer, &StepBreakdown::map_build, map.build_stats);
  AccumulateKernel(layer, &StepBreakdown::map_query, map.query_stats);
  ConvStep step;
  step.out_level = out.level;
  step.kernel_map = std::make_shared<KernelMap>(
      CompactPositionTable(map.table, out.query_offsets, dev.memory()));
  AccumulateKernel(layer, &StepBreakdown::map_query,
                   ChargeMapCompaction(dev, map.table, step.kernel_map->TotalEntries()));
  return step;
}

// The GMaS step of a sparse conv over `step`'s kernel map, in the engine's
// dataflow. A cold session also records the grouping plan and metadata
// tables into `step`; a warm one replays them from it.
FeatureMatrix Engine::RunState::Gmas(const ConvParams& conv, const FeatureMatrix& in,
                                     ConvStep& step, LayerRecord& record,
                                     double& layer_overlap_saved) {
  const Strategy& strategy = engine.strategy_;
  const std::vector<FeatureMatrix>& weights =
      engine.conv_weights_[static_cast<size_t>(conv_index)].per_offset;
  const int64_t num_outputs = step.out_level->size();
  StepBreakdown& layer = record.cycles;
  if (strategy.per_offset_fused) {
    // The fused kernel writes an unpooled device range even in a session: a
    // pool slab sits elsewhere in the arena, and moving the kernel's output
    // there would move its accesses and so its simulated L2 statistics.
    FeatureMatrix fused = FeatureMatrix::Uninitialized(num_outputs, conv.c_out, dev.memory());
    GmasResult gmas = RunPerOffsetFused(dev, *step.kernel_map, in, weights, fused, functional());
    AccumulateKernel(layer, &StepBreakdown::gather, gmas.stats.gather);
    AccumulateKernel(layer, &StepBreakdown::gemm, gmas.stats.gemm);
    layer.gemm_kernels += gmas.stats.plan.NumKernels();
    layer.actual_rows += gmas.stats.plan.actual_rows;
    if (ctx.pool == nullptr) {
      return fused;
    }
    // Move the result into pooled storage so the recycle chain stays
    // pool-owned throughout.
    FeatureMatrix out = NewMatrix(num_outputs, conv.c_out);
    if (functional()) {
      std::copy(fused.data(), fused.data() + num_outputs * conv.c_out, out.data());
    }
    return out;
  }

  const auto& tiles = ctx.replay != nullptr ? ctx.replay->tiles : engine.layer_tiles_;
  auto [gather_tile, scatter_tile] = tiles[static_cast<size_t>(conv_index)];
  // Tiles must divide the channel counts; the fixed default may not.
  while (conv.c_in % gather_tile != 0) {
    --gather_tile;
  }
  while (conv.c_out % scatter_tile != 0) {
    --scatter_tile;
  }
  record.gather_tile = gather_tile;
  record.scatter_tile = scatter_tile;
  GmasConfig gmas_cfg;
  gmas_cfg.grouping = strategy.grouping;
  gmas_cfg.gather_tile = gather_tile;
  gmas_cfg.scatter_tile = scatter_tile;
  gmas_cfg.stream_pool_size = strategy.stream_pool_size;
  gmas_cfg.functional = functional();
  gmas_cfg.precision = engine.config_.precision;
  GmasScratch scratch;
  scratch.pool = ctx.pool;
  scratch.plan = step.grouping.get();  // set only on a warm replay
  scratch.tables = step.tables.get();
  scratch.record_tables = ctx.record != nullptr;
  FeatureMatrix out = NewMatrix(num_outputs, conv.c_out);
  GmasResult gmas =
      RunGatherGemmScatter(dev, *step.kernel_map, in, weights, out, gmas_cfg, &scratch);
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
  if (ctx.record != nullptr) {
    step.grouping = std::make_shared<GroupingPlan>(gmas.stats.plan);
    step.tables = gmas.tables;  // may be null for an empty map
  }
  return out;
}

void Engine::RunState::Pool(const Instr& instr) {
  trace::Span step_span("engine/pool", "step");
  const ConvParams& window = instr.conv;
  MINUET_CHECK(!window.transposed && !window.generative);
  RunPlanStep(
      ctx, &ExecutionPlan::pool_steps, &SessionCtx::pool_cursor,
      [&] {
        OutLevel out = ResolveOutLevel(act.level, window, dev.memory());
        if (out.generated) {
          AccumulateKernel(result.total, &StepBreakdown::map_build,
                           ChargeDownsampleDedup(dev, act.level->keys, out.level->tensor_stride,
                                                 out.level->size(),
                                                 engine.strategy_.sorted_coords));
        }
        MapBuildResult map = BuildMap(*engine.strategy_.map_builder, dev, *act.level, out);
        AccumulateKernel(result.total, &StepBreakdown::map_build, map.build_stats);
        AccumulateKernel(result.total, &StepBreakdown::map_query, map.query_stats);
        return PoolStep{out.level, std::make_shared<MapPositionTable>(std::move(map.table))};
      },
      [&](PoolStep& step) {
        FeatureMatrix pooled = NewMatrix(step.out_level->size(), act.features.cols());
        AccumulateKernel(
            result.total, &StepBreakdown::elementwise,
            SparsePoolKernel(dev, *step.table, act.features, pooled,
                             instr.op == Instr::Op::kMaxPool ? PoolMode::kMax : PoolMode::kAverage,
                             functional()));
        Replace(act.features, std::move(pooled));
        act.level = step.out_level;
      });
}

// bn_relu, slot saves, residual add, concat and global average pooling.
void Engine::RunState::Elementwise(const Instr& instr) {
  trace::Span step_span("engine/elementwise", "step");
  if (instr.op == Instr::Op::kBnRelu) {
    AccumulateKernel(result.total, &StepBreakdown::elementwise,
                     ApplyBnRelu(dev, act.features, functional()));
    RoundIfHalf(act.features);
    return;
  }
  if (instr.op == Instr::Op::kGlobalAvgPool) {
    FeatureMatrix pooled = NewMatrix(1, act.features.cols());
    AccumulateKernel(result.total, &StepBreakdown::elementwise,
                     GlobalAvgPool(dev, act.features, pooled, functional()));
    Replace(act.features, std::move(pooled));
    act.level = NewLevel(nullptr, act.level->tensor_stride, {Coord3{0, 0, 0}}, dev.memory());
    return;
  }
  MINUET_CHECK_GE(instr.slot, 0);
  Activation& slot = slots[static_cast<size_t>(instr.slot)];
  switch (instr.op) {
    case Instr::Op::kResidualSave:
    case Instr::Op::kSkipSave:
      slot.level = act.level;
      Recycle(slot.features);  // a re-used slot returns its old slab first
      slot.features = NewMatrix(act.features.rows(), act.features.cols());
      AccumulateKernel(result.total, &StepBreakdown::elementwise,
                       CopyColumns(dev, act.features, slot.features, 0, functional()));
      break;
    case Instr::Op::kResidualAdd:
      MINUET_CHECK(slot.level == act.level) << "residual add across coordinate levels";
      AccumulateKernel(result.total, &StepBreakdown::elementwise,
                       AddInto(dev, act.features, slot.features, functional()));
      break;
    case Instr::Op::kConcatSkip: {
      MINUET_CHECK(slot.level == act.level) << "concat across coordinate levels";
      FeatureMatrix merged =
          NewMatrix(act.features.rows(), act.features.cols() + slot.features.cols());
      AccumulateKernel(result.total, &StepBreakdown::elementwise,
                       CopyColumns(dev, act.features, merged, 0, functional()));
      AccumulateKernel(result.total, &StepBreakdown::elementwise,
                       CopyColumns(dev, slot.features, merged, act.features.cols(), functional()));
      Replace(act.features, std::move(merged));
      break;
    }
    default:
      MINUET_CHECK(false) << "not an elementwise op";
  }
}

void Engine::RunState::Linear(const Instr& instr) {
  trace::Span step_span("engine/head", "step");
  const int64_t rows = act.features.rows();
  const int64_t c_in = act.features.cols();
  const FeatureMatrix* w = nullptr;  // timing-only engines store no weights
  if (functional()) {
    w = &engine.linear_weights_[linear_index++];
    MINUET_CHECK_EQ(w->rows(), c_in);
    MINUET_CHECK_EQ(w->cols(), instr.linear_out);
  }
  FeatureMatrix out = NewMatrix(rows, instr.linear_out);
  static const KernelId kLinearHead = KernelId::Intern("engine/gemm/linear_head");
  auto multiply = [&] {
    if (functional()) {
      BlockedGemm(act.features.data(), w->data(), out.data(), rows, c_in, instr.linear_out);
    }
  };
  AccumulateKernel(result.total, &StepBreakdown::gemm,
                   dev.LaunchGemm(kLinearHead, rows, instr.linear_out, c_in, /*batch=*/1,
                                  /*efficiency=*/1.0, /*bytes_per_element=*/4.0, multiply));
  Replace(act.features, std::move(out));
}

RunResult Engine::Run(const PointCloud& input) {
  SessionCtx stateless;
  return RunImpl(input, stateless);
}

RunResult Engine::RunImpl(const PointCloud& input, SessionCtx& ctx) {
  MINUET_CHECK(prepared_) << "Prepare() must run before Run()";
  MINUET_CHECK_EQ(input.channels(), network_.in_channels);
  RunState run(*this, ctx);

  trace::Span run_span("run", "run");
  if (run_span.active()) {
    run_span.Attr("engine", EngineKindName(config_.kind));
    run_span.Attr("num_points", input.num_points());
    run_span.Attr("warm", int64_t{ctx.replay != nullptr});
  }
  if (ctx.record != nullptr) {
    ctx.record->tiles = layer_tiles_;
  }
  run.LoadInput(input);
  for (const Instr& instr : network_.instrs) {
    switch (instr.op) {
      case Instr::Op::kConv:
        run.Conv(instr);
        break;
      case Instr::Op::kMaxPool:
      case Instr::Op::kAvgPool:
        run.Pool(instr);
        break;
      case Instr::Op::kLinear:
        run.Linear(instr);
        break;
      default:
        run.Elementwise(instr);
        break;
    }
  }

  // Copy the result out to host storage: the caller may keep it past this
  // engine's device memory, and a pooled slab must go back so the next warm
  // run reuses it. Every remaining slab returns, so the pool ends balanced.
  // A timing-only run's device features are indeterminate; its caller gets
  // host zeros of their shape.
  RunResult& result = run.result;
  const FeatureMatrix& final_features = run.act.features;
  result.features = config_.functional
                        ? FeatureMatrix(final_features, /*memory=*/nullptr)
                        : FeatureMatrix(final_features.rows(), final_features.cols());
  run.Recycle(run.act.features);
  for (RunState::Activation& slot : run.slots) {
    run.Recycle(slot.features);
  }
  result.coords = run.act.level->coords;
  if (run_span.active()) {
    run_span.Attr("sim_cycles", result.total.TotalCycles());
    run_span.Attr("overlap_saved_cycles", run.overlap_saved);
    run_span.Attr("launches", result.total.launches);
    run_span.Attr("sim_ms", device_config_.CyclesToMillis(result.total.TotalCycles()));
  }
  return std::move(result);
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
  h = mix(h, static_cast<uint64_t>(config_.fixed_tile));
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
    return engine_->RunImpl(input, ctx);
  }
  auto recorded = std::make_shared<ExecutionPlan>();
  ctx.record = recorded.get();
  ++cold_runs_;
  RunResult result = engine_->RunImpl(input, ctx);
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

}  // namespace minuet
