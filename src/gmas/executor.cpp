#include "src/gmas/executor.h"

#include <algorithm>

#include "src/gmas/metadata.h"
#include "src/trace/trace.h"
#include "src/util/check.h"

namespace minuet {

double FusedGemmEfficiency(int64_t c_in, int64_t c_out) {
  double c = static_cast<double>(std::max(c_in, c_out));
  return std::clamp(48.0 / c, 0.15, 0.95);
}

KernelStats GmasStepStats::Combined() const {
  KernelStats total;
  total += metadata;
  total += buffer_setup;
  total += gather;
  total += gemm;
  total += scatter;
  return total;
}

GmasResult RunGatherGemmScatter(Device& device, const KernelMap& map,
                                const FeatureMatrix& input_features,
                                const std::vector<FeatureMatrix>& weights, FeatureMatrix& output,
                                const GmasConfig& config, GmasScratch* scratch) {
  if (config.functional) {
    MINUET_CHECK_EQ(map.num_offsets(), static_cast<int64_t>(weights.size()));
  }
  const int64_t num_outputs = output.rows();
  const int64_t c_in = input_features.cols();
  const int64_t c_out = output.cols();

  WorkspacePool* pool = scratch != nullptr ? scratch->pool : nullptr;
  // The staging buffers start indeterminate in both modes. Functional runs
  // get ClearBuffer's zeroes; timing-only runs read no payload, so nothing
  // needs defining and untouched arena pages stay uncommitted.
  auto make_buffer = [&](int64_t rows, int64_t cols) {
    if (pool != nullptr) {
      return FeatureMatrix(rows, cols,
                           pool->Acquire(static_cast<size_t>(rows * cols), /*zero=*/false));
    }
    return FeatureMatrix::Uninitialized(rows, cols, device.memory());
  };

  GmasResult result;
  // GEMM reordering sorts K^3 sizes on the host — negligible (<4% of layer
  // time in the paper; nanoseconds here) but part of the plan. A prebuilt
  // plan (PlanCache hit) skips it.
  if (scratch != nullptr && scratch->plan != nullptr) {
    result.stats.plan = *scratch->plan;
  } else {
    result.stats.plan = PlanGemmGroups(map.EntryCounts(), config.grouping);
  }
  const GroupingPlan& plan = result.stats.plan;
  if (plan.buffer_rows == 0 || num_outputs == 0) {
    if (config.functional) {
      output.Fill(0.0f);  // no offset contributes to any output
    }
    return result;
  }

  // Metadata tables: reuse prebuilt ones when supplied (skipping the charged
  // build kernels — the warm-path saving), otherwise build and optionally
  // export them for the caller's cache.
  const MetadataTables* tables = scratch != nullptr ? scratch->tables : nullptr;
  std::shared_ptr<MetadataTables> built;
  if (tables == nullptr) {
    trace::Span span("gmas/metadata", "step");
    built = std::make_shared<MetadataTables>(
        BuildMetadataTables(device, map, plan, input_features.rows(), num_outputs,
                            &result.stats.metadata));
    tables = built.get();
    if (scratch != nullptr && scratch->record_tables) {
      result.tables = built;
    }
  }
  MINUET_CHECK_EQ(tables->buffer_rows, plan.buffer_rows);

  const int element_bytes = config.precision == Precision::kFp16 ? 2 : 4;
  const double gemm_rate = config.precision == Precision::kFp16 ? 2.0 : 1.0;

  FeatureMatrix in_buffer = make_buffer(plan.buffer_rows, c_in);
  FeatureMatrix out_buffer = make_buffer(plan.buffer_rows, c_out);
  {
    trace::Span span("gmas/buffer", "step");
    result.stats.buffer_setup +=
        ClearBuffer(device, in_buffer, element_bytes, config.functional);
    result.stats.buffer_setup +=
        ClearBuffer(device, out_buffer, element_bytes, config.functional);
  }

  TileKernelConfig gather_cfg;
  gather_cfg.tile_size = config.gather_tile;
  gather_cfg.functional = config.functional;
  gather_cfg.element_bytes = element_bytes;
  {
    trace::Span span("gmas/gather", "step");
    result.stats.gather = GatherKernel(device, *tables, input_features, in_buffer, gather_cfg);
  }

  {
    // The stream pool overlaps grouped GEMMs, so the step's simulated elapsed
    // time (stream_cycles) is less than the sum of its kernels' cycles. The
    // difference is recorded so trace consumers can reconcile the two.
    trace::Span span("gmas/gemm", "step");
    BatchedGemmResult gemm = ExecuteGroupedGemms(device, plan, map.EntryCounts(), in_buffer,
                                                 weights, out_buffer, config.stream_pool_size,
                                                 config.functional, gemm_rate, element_bytes);
    result.stats.gemm = gemm.stats;
    result.stats.gemm_stream_cycles = gemm.stream_cycles;
    if (span.active()) {
      span.Attr("sim_cycles", gemm.stream_cycles);
      span.Attr("overlap_saved_cycles", gemm.stats.cycles - gemm.stream_cycles);
      span.Attr("num_groups", static_cast<int64_t>(plan.groups.size()));
      span.Attr("padding_ratio", plan.PaddingOverhead());
    }
  }

  TileKernelConfig scatter_cfg;
  scatter_cfg.tile_size = config.scatter_tile;
  scatter_cfg.functional = config.functional;
  scatter_cfg.element_bytes = element_bytes;
  {
    trace::Span span("gmas/scatter", "step");
    // Scatter overwrites every output row in functional mode.
    result.stats.scatter = ScatterKernel(device, out_buffer, *tables, output, scatter_cfg);
  }

  if (pool != nullptr) {
    pool->Release(in_buffer.TakeStorage());
    pool->Release(out_buffer.TakeStorage());
  }
  return result;
}

GmasResult RunPerOffsetFused(Device& device, const KernelMap& map,
                             const FeatureMatrix& input_features,
                             const std::vector<FeatureMatrix>& weights, FeatureMatrix& output,
                             bool functional) {
  const int64_t c_in = input_features.cols();
  const int64_t c_out = output.cols();
  if (functional) {
    MINUET_CHECK_EQ(map.num_offsets(), static_cast<int64_t>(weights.size()));
    output.Fill(0.0f);  // the per-offset GEMMs accumulate into it
  }

  GmasResult result;
  // The fused path still plans (trivially) so padding stats read as zero.
  result.stats.plan = PlanGemmGroups(map.EntryCounts(), GroupingStrategy::kNoBatch, 0.0);

  // One step span covers the whole per-offset loop: the fused dataflow has no
  // separate gather/gemm/scatter phases to attribute time to.
  trace::Span fused_span("gmas/fused", "step");

  for (int64_t k = 0; k < map.num_offsets(); ++k) {
    const auto& entries = map.entries[static_cast<size_t>(k)];
    if (entries.empty()) {
      continue;
    }
    const float* w = nullptr;
    if (functional) {
      const FeatureMatrix& weight = weights[static_cast<size_t>(k)];
      MINUET_CHECK_EQ(weight.rows(), c_in);
      MINUET_CHECK_EQ(weight.cols(), c_out);
      w = weight.data();
    }

    // Traffic half of the fused kernel: stream the map entries, read the
    // input rows they name, read-modify-write the output rows.
    constexpr int64_t kEntriesPerBlock = 256;
    const int64_t n = static_cast<int64_t>(entries.size());
    const int64_t blocks = (n + kEntriesPerBlock - 1) / kEntriesPerBlock;
    static const KernelId kOffsetTraffic = KernelId::Intern("gmas/fused/offset_traffic");
    result.stats.gather += device.Launch(
        kOffsetTraffic, LaunchDims{blocks, 128, 0}, [&](BlockCtx& ctx) {
          int64_t begin = ctx.block_index() * kEntriesPerBlock;
          int64_t end = std::min(begin + kEntriesPerBlock, n);
          ctx.GlobalRead(&entries[static_cast<size_t>(begin)],
                         static_cast<size_t>(end - begin) * sizeof(MapPair));
          for (int64_t e = begin; e < end; ++e) {
            const MapPair& pair = entries[static_cast<size_t>(e)];
            const float* in_row = input_features.data() + int64_t{pair.input_index} * c_in;
            float* out_row = output.data() + int64_t{pair.output_index} * c_out;
            ctx.GlobalRead(in_row, static_cast<size_t>(c_in) * sizeof(float));
            ctx.GlobalRead(out_row, static_cast<size_t>(c_out) * sizeof(float));
            ctx.GlobalWrite(out_row, static_cast<size_t>(c_out) * sizeof(float));
            ctx.Compute(static_cast<uint64_t>(c_in + c_out));
            if (functional) {
              BlockedGemm(in_row, w, out_row, 1, c_in, c_out);
            }
          }
        });
    // Math half: the arithmetic at fused-kernel (non-library) efficiency.
    static const KernelId kOffsetGemm = KernelId::Intern("gmas/fused/offset_gemm");
    result.stats.gemm += device.LaunchGemm(kOffsetGemm, n, c_out, c_in, 1,
                                           FusedGemmEfficiency(c_in, c_out));
  }
  result.stats.gemm_stream_cycles = result.stats.gemm.cycles;
  return result;
}

}  // namespace minuet
