// The GMaS step (Gather-GEMM-Scatter, Section 2.2) end to end, plus the
// per-offset fused dataflow that MinkowskiEngine uses instead.
#ifndef SRC_GMAS_EXECUTOR_H_
#define SRC_GMAS_EXECUTOR_H_

#include <memory>
#include <vector>

#include "src/core/feature_matrix.h"
#include "src/core/kernel_map.h"
#include "src/gmas/gather_scatter.h"
#include "src/gmas/gemm.h"
#include "src/gmas/grouping.h"
#include "src/gpusim/device.h"
#include "src/gpusim/workspace_pool.h"

namespace minuet {

enum class Precision { kFp32, kFp16 };

struct GmasConfig {
  GroupingStrategy grouping = GroupingStrategy::kSortedOrder;
  double padding_threshold = 0.25;
  int gather_tile = 4;
  int scatter_tile = 4;
  int threads_per_block = 128;
  int stream_pool_size = 4;
  // false: charge every kernel but skip the arithmetic (timing-only mode).
  bool functional = true;
  // fp16 halves feature/buffer traffic and doubles the GEMM rate; host math
  // stays float (the engine rounds activations through binary16).
  Precision precision = Precision::kFp32;
};

struct GmasStepStats {
  KernelStats metadata;
  KernelStats buffer_setup;  // buffer memsets
  KernelStats gather;
  KernelStats gemm;
  KernelStats scatter;
  double gemm_stream_cycles = 0.0;  // GEMM elapsed with the stream pool
  GroupingPlan plan;

  // Step wall time: serial kernels plus the overlapped GEMM phase.
  double TotalCycles() const {
    return metadata.cycles + buffer_setup.cycles + gather.cycles + gemm_stream_cycles +
           scatter.cycles;
  }
  KernelStats Combined() const;
};

struct GmasResult {
  FeatureMatrix output;  // |Q| x C_out (zero-filled in timing-only mode)
  GmasStepStats stats;
  // Metadata tables built during this run, exported only when
  // GmasScratch::record_tables was set (so a session can cache them).
  std::shared_ptr<const MetadataTables> tables;
};

// Optional serving-path state for RunGatherGemmScatter. Everything is
// borrowed, nothing is required: a default GmasScratch behaves exactly like
// passing nullptr.
struct GmasScratch {
  // Gather/GEMM buffers and the output matrix draw their storage from this
  // pool instead of fresh device allocations (released back before returning,
  // except the output, whose storage the caller owns and may recycle).
  WorkspacePool* pool = nullptr;
  // Prebuilt grouping plan + metadata tables (from a PlanCache hit): skips
  // PlanGemmGroups and the charged BuildMetadataTables kernels entirely.
  // Both must describe the same kernel map that is being executed.
  const GroupingPlan* plan = nullptr;
  const MetadataTables* tables = nullptr;
  // Export the tables built by this run via GmasResult::tables (cold run of
  // a session, so the next run can pass them back in as prebuilt).
  bool record_tables = false;
};

// The batched dataflow (TorchSparse / Minuet): one Gather over all offsets,
// grouped batched GEMMs on padded buffers, one reducing Scatter.
GmasResult RunGatherGemmScatter(Device& device, const KernelMap& map,
                                const FeatureMatrix& input_features,
                                const std::vector<FeatureMatrix>& weights, int64_t num_outputs,
                                const GmasConfig& config, GmasScratch* scratch = nullptr);

// The per-offset fused dataflow (MinkowskiEngine): no buffers, no padding,
// one (traffic + GEMM) pair per non-empty offset at reduced GEMM efficiency.
// Wins at small channel counts, loses at large ones (Figures 15/19).
GmasResult RunPerOffsetFused(Device& device, const KernelMap& map,
                             const FeatureMatrix& input_features,
                             const std::vector<FeatureMatrix>& weights, int64_t num_outputs,
                             bool functional);

// GEMM efficiency of the fused dataflow relative to the vendor library.
// MinkowskiEngine's small-channel kernels keep the weight matrix in registers
// and are close to optimal; for large channel counts a hand-fused kernel
// cannot match cuBLAS tiling ("specialized dataflow optimized for small
// channel sizes", Section 3 / Figure 15).
double FusedGemmEfficiency(int64_t c_in, int64_t c_out);

}  // namespace minuet

#endif  // SRC_GMAS_EXECUTOR_H_
