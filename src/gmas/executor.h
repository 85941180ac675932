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
  int gather_tile = 4;
  int scatter_tile = 4;
  int stream_pool_size = 4;
  // false: charge every kernel but read and write no payload (timing-only mode).
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
  GmasStepStats stats;
  // Metadata tables built during this run, exported only when
  // GmasScratch::record_tables was set (so a session can cache them).
  std::shared_ptr<const MetadataTables> tables;
};

// Optional serving-path state for RunGatherGemmScatter. Everything is
// borrowed, nothing is required: a default GmasScratch behaves exactly like
// passing nullptr.
struct GmasScratch {
  // The gather and GEMM staging buffers draw their storage from this pool
  // instead of fresh device allocations, and go back to it before returning.
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

// Both dataflows write into a caller-allocated `output` (|Q| x C_out in device
// memory; the number of outputs and C_out come from its shape). A functional
// run defines every element of it and reads `weights` (K^3 matrices of
// C_in x C_out). A timing-only run touches neither: the output may be
// indeterminate storage (FeatureMatrix::Uninitialized, or a pool slab
// acquired without zeroing) and stays as it was, and `weights` may be empty.

// The batched dataflow (TorchSparse / Minuet): one Gather over all offsets,
// grouped batched GEMMs on padded buffers, one reducing Scatter.
GmasResult RunGatherGemmScatter(Device& device, const KernelMap& map,
                                const FeatureMatrix& input_features,
                                const std::vector<FeatureMatrix>& weights, FeatureMatrix& output,
                                const GmasConfig& config, GmasScratch* scratch = nullptr);

// The per-offset fused dataflow (MinkowskiEngine): no buffers, no padding,
// one (traffic + GEMM) pair per non-empty offset at reduced GEMM efficiency.
// Wins at small channel counts, loses at large ones (Figures 15/19).
GmasResult RunPerOffsetFused(Device& device, const KernelMap& map,
                             const FeatureMatrix& input_features,
                             const std::vector<FeatureMatrix>& weights, FeatureMatrix& output,
                             bool functional);

// GEMM efficiency of the fused dataflow relative to the vendor library.
// MinkowskiEngine's small-channel kernels keep the weight matrix in registers
// and are close to optimal; for large channel counts a hand-fused kernel
// cannot match cuBLAS tiling ("specialized dataflow optimized for small
// channel sizes", Section 3 / Figure 15).
double FusedGemmEfficiency(int64_t c_in, int64_t c_out);

}  // namespace minuet

#endif  // SRC_GMAS_EXECUTOR_H_
