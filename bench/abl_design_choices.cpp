// Ablations for the reproduction's own design knobs (beyond the paper's
// figures): the adaptive-grouping padding threshold, the CUDA-stream pool
// size s (the paper fixes s = 4 after finding no gain beyond it), and the
// baseline hash tables' load factors.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/dense_reference.h"
#include "src/core/weight_offsets.h"
#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/gmas/gemm.h"
#include "src/gmas/grouping.h"
#include "src/gpusim/device_config.h"
#include "src/hashtable/cuckoo.h"
#include "src/hashtable/linear_probe.h"

namespace minuet {
namespace {

void ThresholdSweep(bench::JsonReport& report) {
  std::printf("\n(a) grouping padding threshold (sorted order, C=64, kitti-like 60K):\n");
  bench::Row("%-10s %9s %8s %10s", "threshold", "padding", "kernels", "GEMM(ms)");
  bench::Rule();
  auto coords = GenerateCoords(DatasetKind::kKitti, 60000, 6);
  auto offsets = MakeWeightOffsets(3, 1);
  KernelMap map =
      CompactPositionTable(ReferenceMapPositions(coords, coords, offsets), offsets, nullptr);
  std::vector<int64_t> sizes = map.EntryCounts();
  for (double threshold : {0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 4.0}) {
    GroupingPlan plan = PlanGemmGroups(sizes, GroupingStrategy::kSortedOrder, threshold);
    Device device(MakeRtx3090());
    StreamPool pool(4, device.config().launch_overhead_cycles);
    for (const GemmGroup& group : plan.groups) {
      pool.Submit(device.LaunchGemm("g", group.rows_per_gemm, 64, 64,
                                    static_cast<int64_t>(group.offset_indices.size()))
                      .cycles);
    }
    double gemm_ms = device.config().CyclesToMillis(pool.ElapsedCycles());
    bench::Row("%-10.2f %8.1f%% %8lld %10.3f", threshold, 100.0 * plan.PaddingOverhead(),
               static_cast<long long>(plan.NumKernels()), gemm_ms);
    report.AddRow();
    report.Set("sweep", std::string("threshold"));
    report.Set("threshold", threshold);
    report.Set("padding", plan.PaddingOverhead());
    report.Set("kernels", plan.NumKernels());
    report.Set("gemm_ms", gemm_ms);
  }
}

void StreamPoolSweep(bench::JsonReport& report) {
  std::printf("\n(b) stream pool size s (Section 5.2.2 fixes s = 4):\n");
  bench::Row("%-10s %12s", "streams", "GEMM(ms)");
  bench::Rule();
  auto coords = GenerateCoords(DatasetKind::kS3dis, 60000, 6);
  auto offsets = MakeWeightOffsets(3, 1);
  KernelMap map =
      CompactPositionTable(ReferenceMapPositions(coords, coords, offsets), offsets, nullptr);
  GroupingPlan plan = PlanGemmGroups(map.EntryCounts(), GroupingStrategy::kSortedOrder, 0.25);
  for (int s : {1, 2, 4, 8, 16}) {
    Device device(MakeRtx3090());
    StreamPool pool(s, device.config().launch_overhead_cycles);
    for (const GemmGroup& group : plan.groups) {
      pool.Submit(device.LaunchGemm("g", group.rows_per_gemm, 64, 64,
                                    static_cast<int64_t>(group.offset_indices.size()))
                      .cycles);
    }
    double gemm_ms = device.config().CyclesToMillis(pool.ElapsedCycles());
    bench::Row("%-10d %12.3f", s, gemm_ms);
    report.AddRow();
    report.Set("sweep", std::string("streams"));
    report.Set("streams", int64_t{s});
    report.Set("gemm_ms", gemm_ms);
  }
}

void LoadFactorSweep(bench::JsonReport& report) {
  std::printf("\n(c) baseline hash-table load factor (400K random keys, query time):\n");
  bench::Row("%-10s %-14s %12s %12s %10s", "load", "table", "build(ms)", "query(ms)", "L2 hit");
  bench::Rule();
  auto coords = GenerateCoords(DatasetKind::kRandom, 400000, 6);
  const std::vector<uint64_t> host_keys = PackCoords(coords);
  for (double load : {0.25, 0.5, 0.75}) {
    for (int table_kind = 0; table_kind < 2; ++table_kind) {
      Device device(MakeRtx3090());
      const DeviceVector<uint64_t> keys = ToDevice(device.memory(), host_keys);
      DeviceVector<uint32_t> results(keys.size(), device.memory());
      std::unique_ptr<HashTableBase> table;
      if (table_kind == 0) {
        table = std::make_unique<LinearProbeHashTable>(load);
      } else {
        table = std::make_unique<CuckooHashTable>(load);
      }
      KernelStats build = table->Build(device, keys);
      KernelStats query = table->Query(device, keys, results);
      bench::Row("%-10.2f %-14s %12.3f %12.3f %9.1f%%", load, table->name(),
                 device.config().CyclesToMillis(build.cycles),
                 device.config().CyclesToMillis(query.cycles), 100.0 * query.L2HitRatio());
      report.AddRow();
      report.Set("sweep", std::string("load_factor"));
      report.Set("load", load);
      report.Set("table", std::string(table->name()));
      report.Set("build_ms", device.config().CyclesToMillis(build.cycles));
      report.Set("query_ms", device.config().CyclesToMillis(query.cycles));
      report.Set("l2_hit_ratio", query.L2HitRatio());
    }
  }
}

void PrecisionSweep(bench::JsonReport& report) {
  std::printf("\n(d) fp16 vs fp32 inference (Minuet, MinkUNet42, kitti-like 40K):\n");
  bench::Row("%-10s %12s %10s %10s %10s", "precision", "total(ms)", "map", "gmas", "gemm");
  bench::Rule();
  GeneratorConfig gen;
  gen.target_points = 40000;
  gen.channels = 4;
  gen.seed = 6;
  PointCloud cloud = GenerateCloud(DatasetKind::kKitti, gen);
  Network net = MakeMinkUNet42(4);
  DeviceConfig device = MakeRtx3090();
  for (Precision precision : {Precision::kFp32, Precision::kFp16}) {
    EngineConfig config;
    config.kind = EngineKind::kMinuet;
    config.functional = false;
    config.precision = precision;
    Engine engine(config, device);
    engine.Prepare(net, 5);
    StepBreakdown total = engine.Run(cloud).total;
    bench::Row("%-10s %12.2f %10.2f %10.2f %10.2f",
               precision == Precision::kFp16 ? "fp16" : "fp32",
               device.CyclesToMillis(total.TotalCycles()),
               device.CyclesToMillis(total.MapCycles()),
               device.CyclesToMillis(total.GmasCycles()), device.CyclesToMillis(total.gemm));
    report.AddRow();
    report.Set("sweep", std::string("precision"));
    report.Set("precision", std::string(precision == Precision::kFp16 ? "fp16" : "fp32"));
    report.Set("total_ms", device.CyclesToMillis(total.TotalCycles()));
    report.Set("map_ms", device.CyclesToMillis(total.MapCycles()));
    report.Set("gmas_ms", device.CyclesToMillis(total.GmasCycles()));
    report.Set("gemm_ms", device.CyclesToMillis(total.gemm));
  }
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) {
  using namespace minuet;
  const bench::Flags flags("abl_design_choices", {bench::Flag::kJson}, argc, argv);
  bench::JsonReport report(flags);
  bench::PrintTitle("Ablations", "design-choice sweeps of this reproduction");
  report.Meta("device", std::string("RTX 3090"));
  ThresholdSweep(report);
  StreamPoolSweep(report);
  LoadFactorSweep(report);
  PrecisionSweep(report);
  return report.Write() ? 0 : 1;
}
