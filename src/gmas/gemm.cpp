#include "src/gmas/gemm.h"

#include <algorithm>
#include <cstring>

#include "src/util/check.h"
#include "src/util/parallel.h"

namespace minuet {

namespace {

// Eight float lanes as a GCC/Clang vector type: one AVX register, or two
// SSE/NEON registers on targets without AVX.
using Lanes = float __attribute__((vector_size(32)));
constexpr int64_t kLaneWidth = 8;
// A micro-tile keeps kTileRows x (kTileVecs * kLaneWidth) of C in registers
// for the whole k loop, so C is loaded and stored once per tile rather than
// once per (row, p) pair.
constexpr int kTileRows = 4;
constexpr int kTileVecs = 2;

// Every path below computes each C element the same way: it adds the
// products in ascending p, each one a rounded multiply followed by a rounded
// add (separate statements, so never contracted into an FMA), and skips p
// where the A value is zero. Tile shape, column tail and instruction set
// therefore never change a single output bit.

// C[0, Rows) x [0, Vecs * 8) (+)= A[0, Rows) x B[:, 0, Vecs * 8).
template <bool Overwrite, int Rows, int Vecs>
[[gnu::always_inline]] inline void MicroTile(const float* a, const float* b, float* c,
                                             int64_t k, int64_t n) {
  Lanes acc[Rows][Vecs];
#pragma GCC unroll 8
  for (int r = 0; r < Rows; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < Vecs; ++v) {
      if constexpr (Overwrite) {
        acc[r][v] = Lanes{};
      } else {
        std::memcpy(&acc[r][v], c + r * n + v * kLaneWidth, sizeof(Lanes));
      }
    }
  }
  for (int64_t p = 0; p < k; ++p) {
    Lanes bv[Vecs];
#pragma GCC unroll 8
    for (int v = 0; v < Vecs; ++v) {
      std::memcpy(&bv[v], b + p * n + v * kLaneWidth, sizeof(Lanes));
    }
#pragma GCC unroll 8
    for (int r = 0; r < Rows; ++r) {
      const float av = a[r * k + p];
      if (av == 0.0f) {
        continue;
      }
#pragma GCC unroll 8
      for (int v = 0; v < Vecs; ++v) {
        const Lanes prod = av * bv[v];
        acc[r][v] = acc[r][v] + prod;
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < Rows; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < Vecs; ++v) {
      std::memcpy(c + r * n + v * kLaneWidth, &acc[r][v], sizeof(Lanes));
    }
  }
}

// Rows [0, Rows) of C: full micro-tiles, then one-vector tiles, then the
// last n % 8 columns one element at a time.
template <bool Overwrite, int Rows>
[[gnu::always_inline]] inline void RowPanel(const float* a, const float* b, float* c, int64_t k,
                                            int64_t n) {
  int64_t j = 0;
  for (; j + kTileVecs * kLaneWidth <= n; j += kTileVecs * kLaneWidth) {
    MicroTile<Overwrite, Rows, kTileVecs>(a, b + j, c + j, k, n);
  }
  for (; j + kLaneWidth <= n; j += kLaneWidth) {
    MicroTile<Overwrite, Rows, 1>(a, b + j, c + j, k, n);
  }
  for (int r = 0; r < Rows; ++r) {
    for (int64_t jj = j; jj < n; ++jj) {
      float sum = Overwrite ? 0.0f : c[r * n + jj];
      for (int64_t p = 0; p < k; ++p) {
        const float av = a[r * k + p];
        if (av == 0.0f) {
          continue;
        }
        const float prod = av * b[p * n + jj];
        sum = sum + prod;
      }
      c[r * n + jj] = sum;
    }
  }
}

template <bool Overwrite>
[[gnu::always_inline]] inline void Gemm(const float* a, const float* b, float* c, int64_t m,
                                        int64_t k, int64_t n) {
  int64_t i = 0;
  for (; i + kTileRows <= m; i += kTileRows) {
    RowPanel<Overwrite, kTileRows>(a + i * k, b, c + i * n, k, n);
  }
  for (; i < m; ++i) {
    RowPanel<Overwrite, 1>(a + i * k, b, c + i * n, k, n);
  }
}

// A grouped launch's functional arithmetic is split into tasks of this many
// rows of one offset, a multiple of the micro-tile height so that only an
// offset's last task has a row tail. Each task writes its own C rows.
constexpr int64_t kRowsPerTask = 256;
static_assert(kRowsPerTask % kTileRows == 0);

struct GemmTask {
  uint32_t offset;
  int64_t begin;  // rows [begin, end) of the offset's slice of the buffers
  int64_t end;
};

}  // namespace

// x86-64 GCC builds carry an AVX2 clone next to the baseline one, picked once
// at load time. Both run the same IEEE operations in the same order, so the
// choice changes speed only. ThreadSanitizer builds keep only the baseline:
// the clone's ifunc resolver runs before the TSan runtime is up and crashes
// the process at load.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("avx2", "default")))
#endif
void BlockedGemm(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
                 GemmWrite write) {
  if (write == GemmWrite::kOverwrite) {
    Gemm<true>(a, b, c, m, k, n);
  } else {
    Gemm<false>(a, b, c, m, k, n);
  }
}

StreamPool::StreamPool(int num_streams, double launch_overhead_cycles)
    : num_streams_(num_streams), launch_overhead_(launch_overhead_cycles) {
  MINUET_CHECK_GE(num_streams, 1);
  MINUET_CHECK_GE(launch_overhead_cycles, 0.0);
}

void StreamPool::Submit(double kernel_cycles) {
  double exec = std::max(0.0, kernel_cycles - launch_overhead_);
  exec_cycles_ += exec;
  ++num_kernels_;
  sum_cycles_ += kernel_cycles;
}

double StreamPool::ElapsedCycles() const {
  int64_t rounds = (num_kernels_ + num_streams_ - 1) / num_streams_;
  return exec_cycles_ + static_cast<double>(rounds) * launch_overhead_;
}

BatchedGemmResult ExecuteGroupedGemms(Device& device, const GroupingPlan& plan,
                                      const std::vector<int64_t>& sizes,
                                      const FeatureMatrix& in_buffer,
                                      const std::vector<FeatureMatrix>& weights,
                                      FeatureMatrix& out_buffer, int num_streams,
                                      bool functional, double efficiency, int element_bytes) {
  if (functional) {
    MINUET_CHECK_EQ(sizes.size(), weights.size());
  }
  MINUET_CHECK_EQ(in_buffer.rows(), plan.buffer_rows);
  MINUET_CHECK_EQ(out_buffer.rows(), plan.buffer_rows);
  const int64_t c_in = in_buffer.cols();
  const int64_t c_out = out_buffer.cols();

  BatchedGemmResult result;
  StreamPool pool(num_streams, device.config().launch_overhead_cycles);
  std::vector<GemmTask> tasks;  // one launch's, reused across launches
  for (const GemmGroup& group : plan.groups) {
    // The functional arithmetic runs inside the launch's span, so the span's
    // host time covers it: wall time, across every worker.
    auto multiply = [&] {
      if (!functional) {
        return;
      }
      tasks.clear();
      for (uint32_t k : group.offset_indices) {
        const FeatureMatrix& w = weights[k];
        MINUET_CHECK_EQ(w.rows(), c_in);
        MINUET_CHECK_EQ(w.cols(), c_out);
        MINUET_CHECK_GE(plan.buffer_base[k], 0);
        // Only the real rows: the launch below charges for the padded
        // height, but no one reads a padding row, so none is computed.
        for (int64_t begin = 0; begin < sizes[k]; begin += kRowsPerTask) {
          tasks.push_back(GemmTask{k, begin, std::min(begin + kRowsPerTask, sizes[k])});
        }
      }
      // One call per launch, not per offset: each call wakes the pool.
      ParallelFor(static_cast<int64_t>(tasks.size()), [&](int, int64_t t) {
        const GemmTask& task = tasks[static_cast<size_t>(t)];
        const int64_t row = plan.buffer_base[task.offset] + task.begin;
        BlockedGemm(in_buffer.data() + row * c_in, weights[task.offset].data(),
                    out_buffer.data() + row * c_out, task.end - task.begin, c_in, c_out,
                    GemmWrite::kOverwrite);
      });
    };
    static const KernelId kGroupedBatch = KernelId::Intern("gmas/gemm/grouped_batch");
    KernelStats stats = device.LaunchGemm(
        kGroupedBatch, group.rows_per_gemm, c_out, c_in,
        static_cast<int64_t>(group.offset_indices.size()), efficiency,
        static_cast<double>(element_bytes), multiply);
    pool.Submit(stats.cycles);
    result.stats += stats;
  }
  result.stream_cycles = pool.ElapsedCycles();
  return result;
}

}  // namespace minuet
