#include "src/prof/profile.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/gpusim/device.h"
#include "src/gpusim/device_config.h"
#include "src/trace/metrics.h"
#include "src/util/json_reader.h"

namespace minuet {
namespace prof {
namespace {

DeviceConfig TinyConfig() {
  DeviceConfig c = MakeRtx3090();
  c.num_sms = 2;
  c.max_threads_per_sm = 256;
  c.max_blocks_per_sm = 4;
  c.launch_overhead_cycles = 1000.0;
  return c;
}

JsonValue Parse(const std::string& text) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &doc, &error)) << error;
  return doc;
}

TEST(ProfileLoadTest, RejectsUnknownDocument) {
  RunProfile profile;
  std::string error;
  EXPECT_FALSE(LoadRunProfile(Parse(R"({"foo": 1})"), &profile, &error));
  EXPECT_NE(error.find("unrecognised"), std::string::npos);
}

TEST(ProfileLoadTest, LoadsMetricsSnapshot) {
  Device dev(TinyConfig());
  dev.Launch("map/query", LaunchDims{32, 128, 0},
             [](BlockCtx& ctx) { ctx.Compute(5000); });
  dev.LaunchGemm("engine/gemm", 256, 64, 64, /*batch=*/2);

  trace::MetricsRegistry registry;
  dev.PublishMetrics(registry);
  registry.GetGauge("engine/layer0/sim_ms").Set(0.25);
  registry.GetGauge("engine/layer0/padding_ratio").Set(0.1);
  registry.GetGauge("engine/layer0/launches").Set(7.0);
  registry.GetGauge("engine/layer0/gemm_kernels").Set(2.0);

  RunProfile profile;
  std::string error;
  ASSERT_TRUE(LoadRunProfile(Parse(registry.SnapshotJson()), &profile, &error)) << error;
  EXPECT_EQ(profile.source, "metrics");
  EXPECT_EQ(profile.device, dev.config().name);
  EXPECT_DOUBLE_EQ(profile.total_ms,
                   dev.config().CyclesToMillis(dev.totals().cycles));
  ASSERT_EQ(profile.kernels.size(), 2u);
  // Sorted by simulated time, descending.
  EXPECT_GE(profile.kernels[0].millis, profile.kernels[1].millis);
  for (const KernelProfile& k : profile.kernels) {
    EXPECT_TRUE(k.name == "map/query" || k.name == "engine/gemm") << k.name;
    EXPECT_GT(k.millis, 0.0);
    EXPECT_GT(k.launches, 0);
    EXPECT_GE(k.occupancy, 0.0);
    EXPECT_LE(k.occupancy, 1.0);
    EXPECT_FALSE(k.roofline.empty());
  }
  ASSERT_EQ(profile.layers.size(), 1u);
  EXPECT_EQ(profile.layers[0].conv_index, 0);
  EXPECT_DOUBLE_EQ(profile.layers[0].sim_ms, 0.25);
  EXPECT_DOUBLE_EQ(profile.layers[0].padding_ratio, 0.1);
}

TEST(ProfileLoadTest, ComputeOnlyKernelIntensityReadsBackAsNaN) {
  Device dev(TinyConfig());
  dev.Launch("pure_compute", LaunchDims{8, 128, 0},
             [](BlockCtx& ctx) { ctx.Compute(1000); });
  trace::MetricsRegistry registry;
  dev.PublishMetrics(registry);

  RunProfile profile;
  ASSERT_TRUE(LoadRunProfile(Parse(registry.SnapshotJson()), &profile, nullptr));
  ASSERT_EQ(profile.kernels.size(), 1u);
  // +inf intensity is serialised as JSON null and must not crash the loader.
  EXPECT_TRUE(std::isnan(profile.kernels[0].arith_intensity));
}

TEST(ProfileLoadTest, LoadsChromeTraceAndAggregatesLaunches) {
  const std::string trace = R"({"traceEvents": [
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "sim"}},
    {"name": "run", "cat": "run", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 1000,
     "args": {}},
    {"name": "run", "cat": "run", "ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": 99999,
     "args": {}},
    {"name": "conv0", "cat": "layer", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 600,
     "args": {"conv_index": 0, "padding_ratio": 0.2, "launches": 5, "gemm_kernels": 2}},
    {"name": "k/a", "cat": "kernel", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 300,
     "args": {"cycles": 510000, "blocks": 10, "waves": 2, "lane_ops": 100,
              "dram_bytes": 400, "l2_hits": 30, "l2_misses": 10,
              "occupancy": 0.5, "dram_bw_util": 0.25, "roofline": "dram_bound"}},
    {"name": "k/a", "cat": "kernel", "ph": "X", "pid": 1, "tid": 1, "ts": 300, "dur": 100,
     "args": {"cycles": 170000, "blocks": 6, "waves": 1, "lane_ops": 100,
              "dram_bytes": 100, "l2_hits": 10, "l2_misses": 50,
              "occupancy": 0.1, "dram_bw_util": 0.05, "roofline": "l2_bound"}},
    {"name": "k/b", "cat": "kernel", "ph": "X", "pid": 1, "tid": 1, "ts": 400, "dur": 50,
     "args": {"cycles": 85000, "blocks": 1, "waves": 1, "lane_ops": 10, "dram_bytes": 0,
              "l2_hits": 0, "l2_misses": 0, "occupancy": 0.01, "dram_bw_util": 0.0,
              "roofline": "launch_bound"}},
    {"name": "k/a", "cat": "kernel", "ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": 7777,
     "args": {"cycles": 1, "blocks": 1}}
  ]})";

  RunProfile profile;
  std::string error;
  ASSERT_TRUE(LoadRunProfile(Parse(trace), &profile, &error)) << error;
  EXPECT_EQ(profile.source, "trace");
  EXPECT_DOUBLE_EQ(profile.total_ms, 1.0);  // run span: 1000 us
  ASSERT_EQ(profile.kernels.size(), 2u);

  // The host track (tid 0) feeds the host view, never the simulated one.
  EXPECT_TRUE(profile.has_host_time);
  EXPECT_DOUBLE_EQ(profile.total_host_ms, 99.999);  // host run span: 99999 us

  const KernelProfile& a = profile.kernels[0];  // 400 us beats 50 us
  EXPECT_EQ(a.name, "k/a");
  EXPECT_DOUBLE_EQ(a.millis, 0.4);  // host-track (tid 0) duplicate ignored
  EXPECT_DOUBLE_EQ(a.host_ms, 7.777);
  EXPECT_EQ(a.launches, 2);
  EXPECT_EQ(a.blocks, 16);
  EXPECT_EQ(a.waves, 3);
  EXPECT_DOUBLE_EQ(a.l2_hit_ratio, 40.0 / 100.0);
  EXPECT_EQ(a.l2_lookups, 100);  // hits + misses over both launches
  // Duration-weighted averages: (0.5*300 + 0.1*100) / 400.
  EXPECT_NEAR(a.occupancy, 0.4, 1e-12);
  EXPECT_NEAR(a.dram_bw_util, 0.2, 1e-12);
  // Recomputed from summed traffic: 200 lane ops / 500 DRAM bytes.
  EXPECT_NEAR(a.arith_intensity, 0.4, 1e-12);
  EXPECT_EQ(a.roofline, "dram_bound");  // 300 us dram vs 100 us l2

  const KernelProfile& b = profile.kernels[1];
  EXPECT_EQ(b.name, "k/b");
  EXPECT_DOUBLE_EQ(b.host_ms, 0.0);  // no host span recorded for k/b
  EXPECT_EQ(b.l2_lookups, 0);
  EXPECT_TRUE(std::isinf(b.arith_intensity));  // lane ops, zero DRAM traffic

  ASSERT_EQ(profile.layers.size(), 1u);
  EXPECT_DOUBLE_EQ(profile.layers[0].sim_ms, 0.6);
  EXPECT_DOUBLE_EQ(profile.layers[0].padding_ratio, 0.2);

  // The report grows host columns only because this artifact carries host
  // durations: host_ms per kernel, sim/host (simulated ms bought per host
  // ms — 0.4 / 7.777 for k/a), the L2 lookups and the host ns per lookup
  // (7.777 ms / 100 lookups for k/a; "-" for k/b, which made none).
  std::string text = FormatReport(profile, 0);
  EXPECT_NE(text.find("host_ms"), std::string::npos) << text;
  EXPECT_NE(text.find("sim/host"), std::string::npos) << text;
  EXPECT_NE(text.find("100.00 host ms"), std::string::npos) << text;  // 99.999 at %.2f
  EXPECT_NE(text.find("0.051"), std::string::npos) << text;  // 0.4 / 7.777
  EXPECT_NE(text.find("l2_lookups"), std::string::npos) << text;
  EXPECT_NE(text.find("host_ns/L2"), std::string::npos) << text;
  const size_t row_a = text.find("k/a");
  const size_t row_b = text.find("k/b");
  ASSERT_NE(row_a, std::string::npos) << text;
  ASSERT_NE(row_b, std::string::npos) << text;
  const std::string line_a = text.substr(row_a, text.find('\n', row_a) - row_a);
  const std::string line_b = text.substr(row_b, text.find('\n', row_b) - row_b);
  EXPECT_NE(line_a.find(" 100 "), std::string::npos) << line_a;
  EXPECT_NE(line_a.find("77770.0"), std::string::npos) << line_a;
  EXPECT_NE(line_b.find(" - "), std::string::npos) << line_b;
}

TEST(ProfileLoadTest, LayerHostTimeComesFromItsHostTrackTwin) {
  // Two passes over conv0 and one over conv1: each simulated layer span (tid
  // 1) pairs with its own host-track twin (tid 0), the n-th with the n-th.
  // conv1 has no host twin, so its host_ms stays 0.
  const std::string trace = R"({"traceEvents": [
    {"name": "conv0", "cat": "layer", "ph": "X", "pid": 0, "tid": 0, "ts": 0, "dur": 4000,
     "args": {"conv_index": 0}},
    {"name": "conv0", "cat": "layer", "ph": "X", "pid": 0, "tid": 1, "ts": 0, "dur": 600,
     "args": {"conv_index": 0, "launches": 5}},
    {"name": "conv1", "cat": "layer", "ph": "X", "pid": 0, "tid": 1, "ts": 600, "dur": 300,
     "args": {"conv_index": 1, "launches": 2}},
    {"name": "conv0", "cat": "layer", "ph": "X", "pid": 0, "tid": 0, "ts": 5000, "dur": 2000,
     "args": {"conv_index": 0}},
    {"name": "conv0", "cat": "layer", "ph": "X", "pid": 0, "tid": 1, "ts": 900, "dur": 500,
     "args": {"conv_index": 0, "launches": 5}}
  ]})";
  RunProfile profile;
  std::string error;
  ASSERT_TRUE(LoadRunProfile(Parse(trace), &profile, &error)) << error;
  EXPECT_TRUE(profile.has_host_time);
  ASSERT_EQ(profile.layers.size(), 3u);
  // Sorted by conv index, in no fixed order within one index, so the conv0
  // passes are told apart by their simulated time.
  for (const LayerProfile& layer : profile.layers) {
    if (layer.conv_index == 1) {
      EXPECT_DOUBLE_EQ(layer.host_ms, 0.0);
    } else if (layer.sim_ms == 0.6) {
      EXPECT_DOUBLE_EQ(layer.host_ms, 4.0);
    } else {
      EXPECT_DOUBLE_EQ(layer.sim_ms, 0.5);
      EXPECT_DOUBLE_EQ(layer.host_ms, 2.0);
    }
  }
  const std::string text = FormatReport(profile, 0);
  const size_t table = text.find("per-layer hot path:");
  ASSERT_NE(table, std::string::npos) << text;
  const std::string layers = text.substr(table);
  EXPECT_NE(layers.find("host_ms"), std::string::npos) << text;
  EXPECT_NE(layers.find("sim/host"), std::string::npos) << text;
  EXPECT_NE(layers.find("4.00"), std::string::npos) << text;   // conv0's first pass
  EXPECT_NE(layers.find("0.150"), std::string::npos) << text;  // 0.6 / 4.0
  EXPECT_NE(layers.find("0.250"), std::string::npos) << text;  // 0.5 / 2.0
}

TEST(ProfileLoadTest, MetricsSnapshotReportHasNoHostColumns) {
  // Metrics snapshots carry no host span durations, so the report must keep
  // its classic shape (the host view would be all zeros — noise).
  // The L2 lookup count still loads (from the kernel's hit and miss
  // counters), but without host time the report shows neither it nor the
  // host cost per lookup.
  Device dev(TinyConfig());
  DeviceVector<char> data(4096, dev.memory());
  dev.Launch("map/query", LaunchDims{32, 128, 0}, [&](BlockCtx& ctx) {
    ctx.Compute(5000);
    ctx.GlobalRead(data.data(), data.size());
  });
  trace::MetricsRegistry registry;
  dev.PublishMetrics(registry);

  RunProfile profile;
  ASSERT_TRUE(LoadRunProfile(Parse(registry.SnapshotJson()), &profile, nullptr));
  EXPECT_FALSE(profile.has_host_time);
  ASSERT_EQ(profile.kernels.size(), 1u);
  const KernelStats& stats = dev.kernel_aggregates().at("map/query");
  EXPECT_EQ(profile.kernels[0].l2_lookups, static_cast<int64_t>(stats.l2_hits + stats.l2_misses));
  EXPECT_EQ(profile.kernels[0].l2_lookups, 32 * 32);  // 32 blocks x 32 lines
  std::string text = FormatReport(profile, 0);
  EXPECT_EQ(text.find("host_ms"), std::string::npos) << text;
  EXPECT_EQ(text.find("sim/host"), std::string::npos) << text;
  EXPECT_EQ(text.find("l2_lookups"), std::string::npos) << text;
  EXPECT_EQ(text.find("host_ns/L2"), std::string::npos) << text;
}

RunProfile MakeProfile(std::vector<KernelProfile> kernels) {
  RunProfile p;
  p.total_ms = 0.0;
  for (const KernelProfile& k : kernels) {
    p.total_ms += k.millis;
  }
  p.kernels = std::move(kernels);
  return p;
}

TEST(DiffTest, FlagsRegressionsBeyondThresholdAndFloor) {
  RunProfile before = MakeProfile({{.name = "a", .millis = 1.0},
                                   {.name = "b", .millis = 0.5},
                                   {.name = "tiny", .millis = 0.0001},
                                   {.name = "gone", .millis = 0.2}});
  RunProfile after = MakeProfile({{.name = "a", .millis = 1.2},     // +20%: regressed
                                  {.name = "b", .millis = 0.505},   // +1%: fine
                                  {.name = "tiny", .millis = 0.0002},  // under floor
                                  {.name = "new", .millis = 0.3}});    // added

  DiffResult diff = DiffProfiles(before, after);
  EXPECT_EQ(diff.deltas.size(), 5u);
  // Sorted by |delta|: "new" (+0.3) leads; "a" and "gone" tie at 0.2.
  EXPECT_EQ(diff.deltas[0].name, "new");

  std::vector<const KernelDelta*> regressed = Regressions(diff, 0.05, 0.001);
  std::vector<std::string> names;
  for (const KernelDelta* d : regressed) {
    names.push_back(d->name);
  }
  // "a" regressed, "new" appeared with real cost; "tiny" is under the
  // absolute floor and "gone" improved (removed).
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "new");  // +0.3 beats +0.2
  EXPECT_EQ(names[1], "a");

  std::string text = FormatDiff(diff, 0.05, 0.001);
  EXPECT_NE(text.find("REGRESSION: a"), std::string::npos);
  EXPECT_NE(text.find("added"), std::string::npos);
  EXPECT_NE(text.find("removed"), std::string::npos);

  // With no changes there is nothing to flag.
  EXPECT_TRUE(Regressions(DiffProfiles(before, before), 0.05, 0.001).empty());
}

// A one-row bench report; `ms` is written with every significant digit.
JsonValue BenchReport(double ms, const std::string& engine = "minuet", int points = 1000) {
  char ms_text[32];
  std::snprintf(ms_text, sizeof(ms_text), "%.17g", ms);
  return Parse(R"({"bench": "fig_x", "meta": {"points": )" + std::to_string(points) +
               R"(, "device": "RTX", "host_s": 4.2},
      "rows": [{"engine": ")" + engine + R"(", "total_ms": )" + ms_text +
               R"(, "l2_hit_ratio": 0.9, "host_ms": 123.0}]})");
}

JsonValue RecordBaseline(const std::vector<JsonValue>& reports) {
  std::string error;
  std::string baseline_json = MakeBaselineJson(reports, &error);
  EXPECT_FALSE(baseline_json.empty()) << error;
  return Parse(baseline_json);
}

TEST(BaselineTest, RoundTripAndExactCheck) {
  JsonValue baseline = RecordBaseline({BenchReport(10.0)});

  // Each value is recorded once, as itself; host keys are dropped.
  EXPECT_EQ(baseline.Find("baseline_version")->AsDouble(), 2.0);
  const JsonValue* rows = baseline.FindPath("benches/fig_x/rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->at(0).Find("total_ms")->AsDouble(), 10.0);
  EXPECT_EQ(rows->at(0).Find("engine")->AsString(), "minuet");
  EXPECT_EQ(rows->at(0).Find("host_ms"), nullptr);
  EXPECT_EQ(baseline.FindPath("benches/fig_x/meta/host_s"), nullptr);
  EXPECT_EQ(baseline.FindPath("benches/fig_x/runs"), nullptr);

  // The same simulated values pass, whatever the host keys say.
  std::string error;
  std::vector<BaselineViolation> violations;
  JsonValue rerun = Parse(R"({"bench": "fig_x", "meta": {"points": 1000, "device": "RTX"},
    "rows": [{"engine": "minuet", "total_ms": 10, "l2_hit_ratio": 0.9, "host_ms": 999.0}]})");
  ASSERT_TRUE(CheckBaseline(baseline, {rerun}, &violations, &error)) << error;
  EXPECT_TRUE(violations.empty());

  // A changed number names bench, row and metric.
  ASSERT_TRUE(CheckBaseline(baseline, {BenchReport(10.5)}, &violations, &error));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].bench, "fig_x");
  EXPECT_EQ(violations[0].row, 0);
  EXPECT_EQ(violations[0].key, "total_ms");

  // A changed string field is a violation.
  violations.clear();
  ASSERT_TRUE(CheckBaseline(baseline, {BenchReport(10.0, "other")}, &violations, &error));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].key, "engine");

  // Meta drift (different scale) is reported, not silently compared.
  violations.clear();
  ASSERT_TRUE(CheckBaseline(baseline, {BenchReport(10.0, "minuet", 2000)}, &violations,
                            &error));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].row, -1);
  EXPECT_EQ(violations[0].key, "meta/points");

  // Unknown bench is a structural error.
  violations.clear();
  JsonValue other = Parse(R"({"bench": "nope", "rows": []})");
  EXPECT_FALSE(CheckBaseline(baseline, {other}, &violations, &error));
  EXPECT_NE(error.find("nope"), std::string::npos);
}

TEST(BaselineTest, OneUlpDriftIsAViolation) {
  JsonValue baseline = RecordBaseline({BenchReport(10.0)});
  std::vector<BaselineViolation> violations;
  std::string error;
  ASSERT_TRUE(CheckBaseline(baseline, {BenchReport(std::nextafter(10.0, 11.0))}, &violations,
                            &error))
      << error;
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].key, "total_ms");
  EXPECT_NE(violations[0].message.find("10.000000000000002"), std::string::npos)
      << violations[0].message;
}

TEST(BaselineTest, BenchWithoutReportIsAViolation) {
  JsonValue second = Parse(R"({"bench": "fig_y", "meta": {}, "rows": [{"x": 1}]})");
  JsonValue baseline = RecordBaseline({BenchReport(10.0), second});
  std::vector<BaselineViolation> violations;
  std::string error;
  ASSERT_TRUE(CheckBaseline(baseline, {BenchReport(10.0)}, &violations, &error)) << error;
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].bench, "fig_y");
  EXPECT_EQ(violations[0].row, -1);
  EXPECT_EQ(violations[0].key, "report");
}

TEST(BaselineTest, DuplicateBenchReportIsAnError) {
  std::string error;
  EXPECT_TRUE(MakeBaselineJson({BenchReport(10.0), BenchReport(10.0)}, &error).empty());
  EXPECT_NE(error.find("fig_x"), std::string::npos);

  JsonValue baseline = RecordBaseline({BenchReport(10.0)});
  std::vector<BaselineViolation> violations;
  error.clear();
  EXPECT_FALSE(CheckBaseline(baseline, {BenchReport(10.0), BenchReport(10.0)}, &violations,
                             &error));
  EXPECT_NE(error.find("fig_x"), std::string::npos);
}

TEST(BaselineTest, VersionOneBaselineIsRejected) {
  JsonValue v1 = Parse(R"({"baseline_version": 1, "benches": {"fig_x": {"runs": 5,
    "meta": {"points": 1000, "device": "RTX"},
    "rows": [{"engine": "minuet", "total_ms": {"mean": 10.0, "noise": 0.0},
              "l2_hit_ratio": {"mean": 0.9, "noise": 0.0}}]}}})");
  std::vector<BaselineViolation> violations;
  std::string error;
  EXPECT_FALSE(CheckBaseline(v1, {BenchReport(10.0)}, &violations, &error));
  EXPECT_NE(error.find("version 2"), std::string::npos) << error;
  EXPECT_TRUE(violations.empty());
}

TEST(ServeProfileTest, DetectsLoadsAndFormatsServeReports) {
  // A metrics snapshot from a real (tiny) device run becomes the embedded
  // "device_metrics" payload, exactly as minuet_serve writes it.
  Device dev(TinyConfig());
  dev.Launch("gmas/gather/tile_copy", LaunchDims{16, 128, 0},
             [](BlockCtx& ctx) { ctx.Compute(4000); });
  trace::MetricsRegistry registry;
  dev.PublishMetrics(registry);

  std::string report_json = std::string(R"({
    "serve_report": 1,
    "context": {"device": "RTX 3090", "network": "TinyUNet", "engine": "Minuet",
                "precision": "fp32"},
    "arrival": {"process": "poisson", "rate_rps": 8000.0, "num_requests": 60, "seed": 7},
    "config": {"policy": "fifo", "queue_capacity": 32, "max_batch_size": 4,
               "max_queue_delay_us": 500.0, "slo_us": 20000.0},
    "summary": {"offered": 60, "admitted": 55, "shed": 5, "completed": 55,
                "num_batches": 14, "warm_requests": 52, "duration_us": 9000.0,
                "server_busy_us": 7200.0, "utilization": 0.8,
                "offered_rps": 6666.6, "throughput_rps": 6111.1,
                "goodput_rps": 6000.0, "shed_rate": 0.0833,
                "slo_attainment": 0.98, "mean_batch_size": 3.9,
                "queue_p50_us": 200.0, "queue_p95_us": 900.0, "queue_p99_us": 1200.0,
                "service_p50_us": 400.0, "service_p95_us": 800.0, "service_p99_us": 900.0,
                "latency_p50_us": 650.0, "latency_p95_us": 1500.0, "latency_p99_us": 1900.0},
    "requests": [], "batches": [],
    "device_metrics": )") +
                            registry.SnapshotJson() + "}";

  JsonValue doc = Parse(report_json);
  EXPECT_TRUE(IsServeReport(doc));
  EXPECT_FALSE(IsServeReport(Parse(R"({"gauges": {}})")));

  // LoadRunProfile must not claim it (the embedded snapshot is nested).
  ServeProfile serve;
  std::string error;
  ASSERT_TRUE(LoadServeProfile(doc, &serve, &error)) << error;
  EXPECT_EQ(serve.device, "RTX 3090");
  EXPECT_EQ(serve.engine, "Minuet");
  EXPECT_EQ(serve.policy, "fifo");
  EXPECT_EQ(serve.process, "poisson");
  EXPECT_EQ(serve.queue_capacity, 32);
  EXPECT_EQ(serve.max_batch_size, 4);
  EXPECT_EQ(serve.offered, 60);
  EXPECT_EQ(serve.shed, 5);
  EXPECT_EQ(serve.warm_requests, 52);
  EXPECT_DOUBLE_EQ(serve.shed_rate, 0.0833);
  EXPECT_DOUBLE_EQ(serve.latency_p99_us, 1900.0);
  EXPECT_DOUBLE_EQ(serve.slo_attainment, 0.98);
  ASSERT_TRUE(serve.has_device_profile);
  ASSERT_EQ(serve.device_profile.kernels.size(), 1u);
  EXPECT_EQ(serve.device_profile.kernels[0].name, "gmas/gather/tile_copy");

  std::string text = FormatServeReport(serve, 5);
  EXPECT_NE(text.find("serve report: Minuet on RTX 3090"), std::string::npos) << text;
  EXPECT_NE(text.find("end-to-end"), std::string::npos);
  EXPECT_NE(text.find("1900.0"), std::string::npos);  // latency p99
  EXPECT_NE(text.find("shed 5 (8.3%)"), std::string::npos);
  EXPECT_NE(text.find("gmas/gather/tile_copy"), std::string::npos);  // kernel table
}

TEST(ServeProfileTest, MissingSummaryIsAnError) {
  ServeProfile serve;
  std::string error;
  EXPECT_FALSE(LoadServeProfile(Parse(R"({"serve_report": 1})"), &serve, &error));
  EXPECT_NE(error.find("summary"), std::string::npos);
}

}  // namespace
}  // namespace prof
}  // namespace minuet
