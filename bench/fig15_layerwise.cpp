// Figure 15: layerwise speedup of each SC engine over MinkowskiEngine,
// geometric mean across the four datasets, for the common (C_in, C_out)
// layer configurations.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/layer_sweep.h"
#include "src/util/summary.h"

namespace minuet {
namespace {

void Run(bench::JsonReport& report) {
  const int64_t points = bench::PointsFromEnv(150000);
  DeviceConfig device = MakeRtx3090();

  bench::Row("%-12s %14s %14s %14s", "(Cin,Cout)", "MinkowskiEng", "TorchSparse", "Minuet");
  bench::Rule();
  std::vector<double> ts_speedups, mn_speedups;
  for (const auto& layer : bench::PaperLayerConfigs()) {
    std::vector<double> mink_ms, ts, mn;
    for (DatasetKind dataset : AllRealDatasets()) {
      GeneratorConfig gen;
      gen.target_points = points;
      gen.channels = layer.c_in;
      gen.seed = 13;
      PointCloud cloud = GenerateCloud(dataset, gen);
      GeneratorConfig tune_gen = gen;
      tune_gen.target_points = points / 2;
      tune_gen.seed = 14;
      PointCloud sample = GenerateCloud(dataset, tune_gen);

      double mink = device.CyclesToMillis(
          bench::RunLayer(EngineKind::kMinkowski, cloud, layer.c_in, layer.c_out, device, nullptr)
              .TotalCycles());
      double torchsparse = device.CyclesToMillis(
          bench::RunLayer(EngineKind::kTorchSparse, cloud, layer.c_in, layer.c_out, device,
                          nullptr)
              .TotalCycles());
      double minuet = device.CyclesToMillis(
          bench::RunLayer(EngineKind::kMinuet, cloud, layer.c_in, layer.c_out, device, &sample)
              .TotalCycles());
      mink_ms.push_back(mink);
      ts.push_back(mink / torchsparse);
      mn.push_back(mink / minuet);
    }
    double ts_geo = GeoMean(ts);
    double mn_geo = GeoMean(mn);
    ts_speedups.push_back(ts_geo);
    mn_speedups.push_back(mn_geo);
    char label[32];
    std::snprintf(label, sizeof(label), "(%lld,%lld)", static_cast<long long>(layer.c_in),
                  static_cast<long long>(layer.c_out));
    bench::Row("%-12s %13.2fx %13.2fx %13.2fx", label, 1.0, ts_geo, mn_geo);
    report.AddRow();
    report.Set("layer", std::string(label));
    report.Set("c_in", layer.c_in);
    report.Set("c_out", layer.c_out);
    report.Set("minkowski_ms_mean", Mean(mink_ms));
    report.Set("torchsparse_speedup", ts_geo);
    report.Set("minuet_speedup", mn_geo);
  }
  bench::Rule();
  bench::Row("%-12s %13.2fx %13.2fx %13.2fx", "geomean", 1.0, GeoMean(ts_speedups),
             GeoMean(mn_speedups));
  report.AddRow();
  report.Set("layer", std::string("geomean"));
  report.Set("torchsparse_speedup", GeoMean(ts_speedups));
  report.Set("minuet_speedup", GeoMean(mn_speedups));
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) {
  using namespace minuet;
  const bench::Flags flags("fig15_layerwise", {bench::Flag::kJson}, argc, argv);
  bench::JsonReport report(flags);
  bench::PrintTitle("Figure 15",
                    "Layerwise speedup over MinkowskiEngine (geomean over datasets)");
  bench::PrintNote("150K-point clouds (MINUET_BENCH_POINTS overrides), K=3 stride 1, RTX 3090; Minuet autotuned per layer");
  report.Meta("points", bench::PointsFromEnv(150000));
  report.Meta("device", std::string("RTX 3090"));
  Run(report);
  return report.Write() ? 0 : 1;
}
