// Figure 5 + Section 3/6.5 statistics: padding overhead and GEMM kernel
// counts for the three grouping approaches (naive per-offset, TorchSparse
// map-order batching, Minuet sorted grouping), plus simulated GEMM time,
// across datasets and channel sizes. Also reports the GEMM-reordering
// overhead (Section 5.2.2 claims < 4% of layer time).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/dense_reference.h"
#include "src/core/weight_offsets.h"
#include "src/data/generators.h"
#include "src/gmas/gemm.h"
#include "src/gmas/grouping.h"
#include "src/gpusim/device_config.h"
#include "src/util/summary.h"
#include "src/util/timer.h"

namespace minuet {
namespace {

struct Stats {
  std::vector<double> padding;
  std::vector<double> kernels;
  std::vector<double> gemm_ms;
};

void Run(bench::JsonReport& report) {
  const int64_t points = 60000;
  const int64_t c = 64;
  auto offsets = MakeWeightOffsets(3, 1);

  Stats naive, map_order, sorted;
  double reorder_wall_ms = 0.0;
  int reorder_count = 0;

  bench::Row("%-10s %-12s %9s %8s %10s", "dataset", "strategy", "padding", "kernels",
             "GEMM(ms)");
  bench::Rule();
  for (DatasetKind dataset : AllRealDatasets()) {
    auto coords = GenerateCoords(dataset, points, /*seed=*/6);
    KernelMap map =
        CompactPositionTable(ReferenceMapPositions(coords, coords, offsets), offsets, nullptr);
    std::vector<int64_t> sizes = map.EntryCounts();

    struct Case {
      const char* label;
      GroupingStrategy strategy;
      Stats* stats;
    };
    Case cases[] = {{"naive", GroupingStrategy::kNoBatch, &naive},
                    {"map_order", GroupingStrategy::kMapOrder, &map_order},
                    {"sorted", GroupingStrategy::kSortedOrder, &sorted}};
    for (const Case& c_case : cases) {
      WallTimer timer;
      GroupingPlan plan = PlanGemmGroups(sizes, c_case.strategy, 0.25);
      if (c_case.strategy == GroupingStrategy::kSortedOrder) {
        reorder_wall_ms += timer.ElapsedMillis();
        ++reorder_count;
      }
      Device device(MakeRtx3090());
      double gemm_cycles = 0.0;
      StreamPool pool(4, device.config().launch_overhead_cycles);
      for (const GemmGroup& group : plan.groups) {
        KernelStats k = device.LaunchGemm("gemm", group.rows_per_gemm, c, c,
                                          static_cast<int64_t>(group.offset_indices.size()));
        pool.Submit(k.cycles);
      }
      gemm_cycles = pool.ElapsedCycles();
      double ms = device.config().CyclesToMillis(gemm_cycles);
      c_case.stats->padding.push_back(plan.PaddingOverhead());
      c_case.stats->kernels.push_back(static_cast<double>(plan.NumKernels()));
      c_case.stats->gemm_ms.push_back(ms);
      bench::Row("%-10s %-12s %8.1f%% %8lld %10.3f", DatasetName(dataset), c_case.label,
                 100.0 * plan.PaddingOverhead(), static_cast<long long>(plan.NumKernels()), ms);
      report.AddRow();
      report.Set("dataset", std::string(DatasetName(dataset)));
      report.Set("strategy", std::string(c_case.label));
      report.Set("padding_overhead", plan.PaddingOverhead());
      report.Set("gemm_kernels", plan.NumKernels());
      report.Set("gemm_ms", ms);
    }
    bench::Rule();
  }

  std::printf("\nAverages across datasets (paper, Section 3: TorchSparse 11%% / 11.1 kernels,"
              "\nMinuet 8.2%% / 7.76 kernels):\n");
  bench::Row("%-12s %9.1f%% %8.1f %10.3f", "naive", 100.0 * Mean(naive.padding),
             Mean(naive.kernels), Mean(naive.gemm_ms));
  bench::Row("%-12s %9.1f%% %8.1f %10.3f", "map_order", 100.0 * Mean(map_order.padding),
             Mean(map_order.kernels), Mean(map_order.gemm_ms));
  bench::Row("%-12s %9.1f%% %8.1f %10.3f", "sorted", 100.0 * Mean(sorted.padding),
             Mean(sorted.kernels), Mean(sorted.gemm_ms));
  std::printf("\nGEMM reorder (host sort of K^3 sizes): %.4f ms avg — far below the paper's"
              " <4%% of layer time bound.\n",
              reorder_wall_ms / reorder_count);
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) {
  using namespace minuet;
  const bench::Flags flags("fig05_gemm_grouping", {bench::Flag::kJson}, argc, argv);
  bench::JsonReport report(flags);
  bench::PrintTitle("Figure 5 / Table (Sec. 3)",
                    "GEMM grouping: padding overhead, kernel count, simulated GEMM time");
  bench::PrintNote("60K-point clouds, K=3, C_in=C_out=64, threshold 0.25, 4-stream pool");
  report.Meta("points", int64_t{60000});
  report.Meta("channels", int64_t{64});
  Run(report);
  return report.Write() ? 0 : 1;
}
