// Figure 12: end-to-end speedup of Minuet over MinkowskiEngine and
// TorchSparse for both evaluation networks on all four datasets (RTX 3090
// model), plus a GPU-architecture sweep on MinkUNet42/kitti.
//
// Flags beyond the shared --json=FILE:
//   --metrics=FILE    dump each engine run's device counters into one
//                     metrics-registry snapshot, one prefix per run.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"
#include "src/trace/metrics.h"
#include "src/util/summary.h"

namespace minuet {
namespace {

struct RunOptions {
  trace::MetricsRegistry* metrics = nullptr;
};

double RunEndToEnd(EngineKind kind, const Network& net, const PointCloud& cloud,
                   const PointCloud& sample, const DeviceConfig& device,
                   const RunOptions& options, const std::string& metrics_prefix) {
  EngineConfig config;
  config.kind = kind;
  config.functional = false;
  Engine engine(config, device);
  engine.Prepare(net, /*seed=*/5);
  if (kind == EngineKind::kMinuet) {
    engine.Autotune(sample);  // excluded from timing, as in the paper
  }
  RunResult result = engine.Run(cloud);
  if (options.metrics != nullptr) {
    engine.device().PublishMetrics(*options.metrics, metrics_prefix);
  }
  return device.CyclesToMillis(result.total.TotalCycles());
}

const char* EngineLabel(EngineKind kind) {
  switch (kind) {
    case EngineKind::kMinkowski:
      return "minkowski";
    case EngineKind::kTorchSparse:
      return "torchsparse";
    default:
      return "minuet";
  }
}

void Run(bench::JsonReport& report, const RunOptions& options) {
  const int64_t points = bench::PointsFromEnv(100000);
  report.Meta("points", points);
  std::vector<Network> networks = {MakeSparseResNet21(4, 20), MakeMinkUNet42(4)};

  auto prefix = [](const Network& net, const char* dataset, const DeviceConfig& device,
                   EngineKind kind) {
    return "fig12/" + net.name + "/" + dataset + "/" + device.name + "/" + EngineLabel(kind);
  };

  std::vector<double> over_mink, over_ts;
  bench::Row("%-16s %-10s %12s %12s %12s %10s %10s", "network", "dataset", "Mink(ms)",
             "TS(ms)", "Minuet(ms)", "vs Mink", "vs TS");
  bench::Rule();
  DeviceConfig rtx3090 = MakeRtx3090();
  for (const Network& net : networks) {
    for (DatasetKind dataset : AllRealDatasets()) {
      GeneratorConfig gen;
      gen.target_points = points;
      gen.channels = net.in_channels;
      gen.seed = 21;
      PointCloud cloud = GenerateCloud(dataset, gen);
      GeneratorConfig tune = gen;
      tune.target_points = points / 4;
      tune.seed = 22;
      PointCloud sample = GenerateCloud(dataset, tune);

      const char* ds = DatasetName(dataset);
      double mink = RunEndToEnd(EngineKind::kMinkowski, net, cloud, sample, rtx3090, options,
                                prefix(net, ds, rtx3090, EngineKind::kMinkowski));
      double ts = RunEndToEnd(EngineKind::kTorchSparse, net, cloud, sample, rtx3090, options,
                              prefix(net, ds, rtx3090, EngineKind::kTorchSparse));
      double mn = RunEndToEnd(EngineKind::kMinuet, net, cloud, sample, rtx3090, options,
                              prefix(net, ds, rtx3090, EngineKind::kMinuet));
      over_mink.push_back(mink / mn);
      over_ts.push_back(ts / mn);
      bench::Row("%-16s %-10s %12.2f %12.2f %12.2f %9.2fx %9.2fx", net.name.c_str(),
                 DatasetName(dataset), mink, ts, mn, mink / mn, ts / mn);
      report.AddRow();
      report.Set("network", net.name);
      report.Set("dataset", std::string(DatasetName(dataset)));
      report.Set("device", std::string("RTX 3090"));
      report.Set("minkowski_ms", mink);
      report.Set("torchsparse_ms", ts);
      report.Set("minuet_ms", mn);
      report.Set("speedup_vs_minkowski", mink / mn);
      report.Set("speedup_vs_torchsparse", ts / mn);
    }
  }
  bench::Rule();
  bench::Row("%-27s %38s %9.2fx %9.2fx", "geomean (RTX 3090)", "", GeoMean(over_mink),
             GeoMean(over_ts));

  std::printf("\nGPU-architecture sweep — MinkUNet42, kitti-like cloud:\n");
  bench::Row("%-16s %12s %12s %12s %10s %10s", "GPU", "Mink(ms)", "TS(ms)", "Minuet(ms)",
             "vs Mink", "vs TS");
  bench::Rule();
  {
    Network net = MakeMinkUNet42(4);
    GeneratorConfig gen;
    gen.target_points = points;
    gen.channels = 4;
    gen.seed = 21;
    PointCloud cloud = GenerateCloud(DatasetKind::kKitti, gen);
    GeneratorConfig tune = gen;
    tune.target_points = points / 4;
    tune.seed = 22;
    PointCloud sample = GenerateCloud(DatasetKind::kKitti, tune);
    for (const DeviceConfig& device : AllDeviceConfigs()) {
      double mink = RunEndToEnd(EngineKind::kMinkowski, net, cloud, sample, device, options,
                                prefix(net, "kitti", device, EngineKind::kMinkowski));
      double ts = RunEndToEnd(EngineKind::kTorchSparse, net, cloud, sample, device, options,
                              prefix(net, "kitti", device, EngineKind::kTorchSparse));
      double mn = RunEndToEnd(EngineKind::kMinuet, net, cloud, sample, device, options,
                              prefix(net, "kitti", device, EngineKind::kMinuet));
      bench::Row("%-16s %12.2f %12.2f %12.2f %9.2fx %9.2fx", device.name.c_str(), mink, ts, mn,
                 mink / mn, ts / mn);
      report.AddRow();
      report.Set("network", net.name);
      report.Set("dataset", std::string("kitti"));
      report.Set("device", device.name);
      report.Set("minkowski_ms", mink);
      report.Set("torchsparse_ms", ts);
      report.Set("minuet_ms", mn);
      report.Set("speedup_vs_minkowski", mink / mn);
      report.Set("speedup_vs_torchsparse", ts / mn);
    }
  }
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) {
  using namespace minuet;
  const bench::Flags flags("fig12_end_to_end",
                           {bench::Flag::kJson, bench::Flag::kMetrics},
                           argc, argv);
  bench::JsonReport report(flags);
  RunOptions options;
  const std::string& metrics_path = flags.Get(bench::Flag::kMetrics);
  bench::PrintTitle("Figure 12", "End-to-end speedup across networks, datasets and GPUs");
  bench::PrintNote("100K-point clouds (MINUET_BENCH_POINTS overrides), timing-only mode;");
  bench::PrintNote("Minuet autotuned per layer beforehand (tuning excluded, as in the paper)");
  trace::MetricsRegistry metrics;
  if (!metrics_path.empty()) {
    options.metrics = &metrics;
  }
  Run(report, options);
  if (!metrics_path.empty() && !metrics.WriteSnapshot(metrics_path)) {
    std::fprintf(stderr, "could not write %s\n", metrics_path.c_str());
    return 1;
  }
  return report.Write() ? 0 : 1;
}
