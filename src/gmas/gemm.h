// Batched GEMM execution for the GMaS step.
//
// Timing comes from the device's analytic GEMM model (padded rows cost what
// they cost cuBLAS); the arithmetic itself runs as a blocked CPU GEMM over
// the real (unpadded) rows, and is skipped entirely in timing-only mode.
// Groups are issued round-robin onto a small CUDA-stream pool (Section 5.2.2,
// s = 4), so the step's wall time is the longest stream, not the sum.
#ifndef SRC_GMAS_GEMM_H_
#define SRC_GMAS_GEMM_H_

#include <vector>

#include "src/core/feature_matrix.h"
#include "src/gmas/grouping.h"
#include "src/gpusim/device.h"

namespace minuet {

// What BlockedGemm does with C's prior contents.
enum class GemmWrite {
  kAccumulate,  // C += A * B
  kOverwrite,   // C = A * B; C's prior contents are never read
};

// C (m x n) += or = A (m x k) * B (k x n), all row-major. Each C element
// starts from its prior value (kAccumulate) or from +0.0f (kOverwrite) and
// adds its products a[i][p] * b[p][j] in ascending p, one rounded multiply and
// one rounded add each, skipping p where a[i][p] == 0: the result is
// bit-identical to that scalar loop for any shape, so kOverwrite equals
// kAccumulate into a C of +0.0f bit for bit. Rows are independent: splitting
// the m rows into any row ranges computes the same bits.
void BlockedGemm(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
                 GemmWrite write);

// Models a pool of CUDA streams. Concurrent kernels do not multiply device
// throughput — each GEMM alone saturates the GPU — so what streams actually
// buy is hiding launch gaps behind other streams' execution: elapsed time is
// the sum of execution cycles plus one launch overhead per stream "round".
class StreamPool {
 public:
  StreamPool(int num_streams, double launch_overhead_cycles);

  // `kernel_cycles` must include the launch overhead (as KernelStats does).
  void Submit(double kernel_cycles);
  double ElapsedCycles() const;
  double SumCycles() const { return sum_cycles_; }

 private:
  int num_streams_;
  double launch_overhead_;
  int64_t num_kernels_ = 0;
  double exec_cycles_ = 0.0;
  double sum_cycles_ = 0.0;
};

struct BatchedGemmResult {
  KernelStats stats;            // all GEMM launches, cycles summed serially
  double stream_cycles = 0.0;   // elapsed with the stream pool overlap
};

// Executes one GEMM kernel launch per group: for every offset k in a group,
// out_buffer[base_k .. base_k+n_k) = in_buffer[base_k .. base_k+n_k) *
// weights[k]. weights[k] is C_in x C_out. Only these real rows are read and
// written; padding rows are neither. A launch's arithmetic runs as one
// ParallelFor over (offset, row range) tasks. If `functional` is false only
// the cost model runs: no buffer or weight is touched, and `weights` may be
// empty.
// `efficiency` is forwarded to the device GEMM model.
BatchedGemmResult ExecuteGroupedGemms(Device& device, const GroupingPlan& plan,
                                      const std::vector<int64_t>& sizes,
                                      const FeatureMatrix& in_buffer,
                                      const std::vector<FeatureMatrix>& weights,
                                      FeatureMatrix& out_buffer, int num_streams,
                                      bool functional, double efficiency = 1.0,
                                      int element_bytes = 4);

}  // namespace minuet

#endif  // SRC_GMAS_GEMM_H_
