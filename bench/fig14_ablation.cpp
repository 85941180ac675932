// Figure 14: speedup breakdown — starting from a TorchSparse-equivalent
// configuration, Minuet's four key ideas are enabled one at a time:
//   +AT   autotuned Gather/Scatter tiles
//   +PG   padding-efficient (sorted) GEMM grouping + stream pool
//   +SS   segmented query sorting (sorted-array map instead of hash)
//   +DTBS double-traversed binary search
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"

namespace minuet {
namespace {

struct Step {
  const char* label;
  EngineFeatures features;
};

void Run(DatasetKind dataset, bench::JsonReport& report) {
  const int64_t points = bench::PointsFromEnv(100000);
  const Network net = MakeMinkUNet42(4);
  DeviceConfig device = MakeRtx3090();

  GeneratorConfig gen;
  gen.target_points = points;
  gen.channels = 4;
  gen.seed = 41;
  PointCloud cloud = GenerateCloud(dataset, gen);
  GeneratorConfig tune = gen;
  tune.seed = 42;
  tune.target_points = points / 4;
  PointCloud sample = GenerateCloud(dataset, tune);

  // EngineFeatures{ss, dtbs, at, pg}; the cumulative order follows Figure 14.
  std::vector<Step> steps = {
      {"baseline (TorchSparse-eq)", EngineFeatures{false, false, false, false}},
      {"+AT", EngineFeatures{false, false, true, false}},
      {"+PG", EngineFeatures{false, false, true, true}},
      {"+SS", EngineFeatures{true, false, true, true}},
      {"+DTBS (= Minuet)", EngineFeatures{true, true, true, true}},
  };

  std::printf("\ndataset: %s\n", DatasetName(dataset));
  bench::Row("%-28s %12s %12s %10s", "configuration", "total(ms)", "map(ms)", "speedup");
  bench::Rule();
  double baseline_ms = 0.0;
  for (const Step& step : steps) {
    EngineConfig config;
    config.kind = EngineKind::kMinuet;
    config.features = step.features;
    config.functional = false;
    Engine engine(config, device);
    engine.Prepare(net, /*seed=*/5);
    if (step.features.autotuned_tiles) {
      engine.Autotune(sample);
    }
    RunResult result = engine.Run(cloud);
    double ms = device.CyclesToMillis(result.total.TotalCycles());
    if (baseline_ms == 0.0) {
      baseline_ms = ms;
    }
    bench::Row("%-28s %12.2f %12.2f %9.2fx", step.label, ms,
               device.CyclesToMillis(result.total.MapCycles()), baseline_ms / ms);
    report.AddRow();
    report.Set("dataset", std::string(DatasetName(dataset)));
    report.Set("configuration", std::string(step.label));
    report.Set("total_ms", ms);
    report.Set("map_ms", device.CyclesToMillis(result.total.MapCycles()));
    report.Set("speedup", baseline_ms / ms);
  }
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) {
  using namespace minuet;
  const bench::Flags flags("fig14_ablation", {bench::Flag::kJson}, argc, argv);
  bench::JsonReport report(flags);
  bench::PrintTitle("Figure 14", "Speedup breakdown of Minuet's four key ideas (cumulative)");
  bench::PrintNote("MinkUNet42, RTX 3090, timing-only; 100K points (MINUET_BENCH_POINTS "
                   "overrides)");
  report.Meta("points", bench::PointsFromEnv(100000));
  report.Meta("device", std::string("RTX 3090"));
  Run(DatasetKind::kKitti, report);
  Run(DatasetKind::kSem3d, report);
  return report.Write() ? 0 : 1;
}
