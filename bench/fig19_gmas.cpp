// Figure 19: speedup in the GMaS step only (metadata + gather + GEMM +
// scatter), normalised to MinkowskiEngine, averaged over the datasets, for
// the common (C_in, C_out) layer configurations. Also reports the padding /
// kernel-count statistics quoted in Section 6.5.
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
  std::vector<double> ts_padding, mn_padding, ts_kernels, mn_kernels;
  for (const auto& layer : bench::PaperLayerConfigs()) {
    std::vector<double> ts, mn;
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

      StepBreakdown mink = bench::RunLayer(EngineKind::kMinkowski, cloud, layer.c_in,
                                           layer.c_out, device, nullptr);
      StepBreakdown torchsparse = bench::RunLayer(EngineKind::kTorchSparse, cloud, layer.c_in,
                                                  layer.c_out, device, nullptr);
      StepBreakdown minuet =
          bench::RunLayer(EngineKind::kMinuet, cloud, layer.c_in, layer.c_out, device, &sample);
      ts.push_back(mink.GmasCycles() / torchsparse.GmasCycles());
      mn.push_back(mink.GmasCycles() / minuet.GmasCycles());
      ts_padding.push_back(torchsparse.PaddingOverhead());
      mn_padding.push_back(minuet.PaddingOverhead());
      ts_kernels.push_back(static_cast<double>(torchsparse.gemm_kernels));
      mn_kernels.push_back(static_cast<double>(minuet.gemm_kernels));
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
    report.Set("torchsparse_speedup", ts_geo);
    report.Set("minuet_speedup", mn_geo);
  }
  bench::Rule();
  bench::Row("%-12s %13.2fx %13.2fx %13.2fx", "geomean", 1.0, GeoMean(ts_speedups),
             GeoMean(mn_speedups));
  std::printf(
      "\nGEMM stats (paper, Sec. 6.5: TorchSparse 11%% padding / 11.1 kernels;"
      " Minuet 8.2%% / 7.76):\n"
      "  TorchSparse: %.1f%% padding, %.1f kernels\n"
      "  Minuet:      %.1f%% padding, %.1f kernels\n",
      100.0 * Mean(ts_padding), Mean(ts_kernels), 100.0 * Mean(mn_padding), Mean(mn_kernels));
  report.AddRow();
  report.Set("layer", std::string("geomean"));
  report.Set("torchsparse_speedup", GeoMean(ts_speedups));
  report.Set("minuet_speedup", GeoMean(mn_speedups));
  report.Set("torchsparse_padding", Mean(ts_padding));
  report.Set("minuet_padding", Mean(mn_padding));
  report.Set("torchsparse_gemm_kernels", Mean(ts_kernels));
  report.Set("minuet_gemm_kernels", Mean(mn_kernels));
}

}  // namespace
}  // namespace minuet

int main(int argc, char** argv) {
  using namespace minuet;
  const bench::Flags flags("fig19_gmas", {bench::Flag::kJson}, argc, argv);
  bench::JsonReport report(flags);
  bench::PrintTitle("Figure 19", "GMaS-step speedup over MinkowskiEngine (geomean over datasets)");
  bench::PrintNote("150K-point clouds (MINUET_BENCH_POINTS overrides), K=3 stride 1, RTX 3090; Minuet autotuned per layer");
  report.Meta("points", bench::PointsFromEnv(150000));
  report.Meta("device", std::string("RTX 3090"));
  Run(report);
  return report.Write() ? 0 : 1;
}
