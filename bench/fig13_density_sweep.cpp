// Figure 13: end-to-end speedup on uniformly random clouds in a fixed 400^3
// bounding volume while the number of non-zero points (the density) varies.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/voxelizer.h"
#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"
#include "src/util/summary.h"

namespace minuet {
namespace {

void Run(bench::JsonReport& report) {
  const Network net = MakeMinkUNet42(4);
  DeviceConfig device = MakeRtx3090();
  const std::vector<int64_t> sizes = {10000, 30000, 100000, 200000, 400000};

  bench::Row("%-10s %10s %12s %12s %12s %10s %10s", "points", "density", "Mink(ms)", "TS(ms)",
             "Minuet(ms)", "vs Mink", "vs TS");
  bench::Rule();
  std::vector<double> over_mink, over_ts;
  for (int64_t n : sizes) {
    GeneratorConfig gen;
    gen.target_points = n;
    gen.channels = 4;
    gen.seed = 31;
    gen.random_volume = 400;
    PointCloud cloud = GenerateCloud(DatasetKind::kRandom, gen);
    GeneratorConfig tune = gen;
    tune.seed = 32;
    tune.target_points = std::max<int64_t>(n / 4, 2000);
    PointCloud sample = GenerateCloud(DatasetKind::kRandom, tune);

    double results[3] = {0, 0, 0};
    EngineKind kinds[3] = {EngineKind::kMinkowski, EngineKind::kTorchSparse,
                           EngineKind::kMinuet};
    for (int e = 0; e < 3; ++e) {
      EngineConfig config;
      config.kind = kinds[e];
      config.functional = false;
      Engine engine(config, device);
      engine.Prepare(net, /*seed=*/5);
      if (kinds[e] == EngineKind::kMinuet) {
        engine.Autotune(sample);
      }
      results[e] = device.CyclesToMillis(engine.Run(cloud).total.TotalCycles());
    }
    over_mink.push_back(results[0] / results[2]);
    over_ts.push_back(results[1] / results[2]);
    bench::Row("%-10lld %9.2f%% %12.2f %12.2f %12.2f %9.2fx %9.2fx",
               static_cast<long long>(cloud.num_points()),
               100.0 * Sparsity(cloud.coords), results[0], results[1], results[2],
               results[0] / results[2], results[1] / results[2]);
    report.AddRow();
    report.Set("points", cloud.num_points());
    report.Set("density", Sparsity(cloud.coords));
    report.Set("minkowski_ms", results[0]);
    report.Set("torchsparse_ms", results[1]);
    report.Set("minuet_ms", results[2]);
    report.Set("speedup_vs_minkowski", results[0] / results[2]);
    report.Set("speedup_vs_torchsparse", results[1] / results[2]);
  }
  bench::Rule();
  bench::Row("%-21s %38s %9.2fx %9.2fx", "geomean", "", GeoMean(over_mink), GeoMean(over_ts));
  report.AddRow();
  report.Set("points", std::string("geomean"));
  report.Set("speedup_vs_minkowski", GeoMean(over_mink));
  report.Set("speedup_vs_torchsparse", GeoMean(over_ts));
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) {
  using namespace minuet;
  const bench::Flags flags("fig13_density_sweep", {bench::Flag::kJson}, argc, argv);
  bench::JsonReport report(flags);
  bench::PrintTitle("Figure 13", "End-to-end speedup vs point-cloud density (400^3 volume)");
  bench::PrintNote("MinkUNet42, RTX 3090, timing-only; paper sweeps 1e4..1e6 points");
  report.Meta("device", std::string("RTX 3090"));
  report.Meta("volume", int64_t{400});
  Run(report);
  return report.Write() ? 0 : 1;
}
