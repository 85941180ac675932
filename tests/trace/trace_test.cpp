// minuet::trace — span balance, Chrome exporter structure, metrics registry
// round-trips, and the engine integration invariants: one kernel span per
// simulated launch, and per-layer kernel cycles that reconcile (modulo the
// recorded stream-pool overlap) with the layer's reported simulated time.
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/generators.h"
#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"
#include "src/prof/profile.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/json_reader.h"

namespace minuet {
namespace {

using trace::AttrValue;
using trace::MetricsRegistry;
using trace::Span;
using trace::SpanRecord;
using trace::Tracer;

// Scoped installation so a failing test never leaves a dangling tracer.
class ScopedTracer {
 public:
  ScopedTracer() { Tracer::Install(&tracer_); }
  ~ScopedTracer() { Tracer::Install(nullptr); }
  Tracer& get() { return tracer_; }

 private:
  Tracer tracer_;
};

double NumericAttr(const SpanRecord& span, const std::string& key) {
  for (const auto& [name, value] : span.attrs) {
    if (name != key) {
      continue;
    }
    if (const auto* d = std::get_if<double>(&value)) {
      return *d;
    }
    if (const auto* i = std::get_if<int64_t>(&value)) {
      return static_cast<double>(*i);
    }
  }
  ADD_FAILURE() << "span " << span.name << " has no numeric attr " << key;
  return 0.0;
}

// Minimal structural JSON check: quotes/escapes respected, braces and
// brackets balanced and properly nested. Catches every way a hand-rolled
// writer usually breaks (stray commas are caught by the python CI check).
bool BalancedJson(const std::string& json) {
  std::vector<char> stack;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') {
          return false;
        }
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') {
          return false;
        }
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty();
}

TEST(TracerTest, DisabledByDefault) {
  EXPECT_EQ(Tracer::Get(), nullptr);
  EXPECT_FALSE(Span::Enabled());
  // Spans constructed with no tracer installed are inert.
  Span span("noop", "step");
  EXPECT_FALSE(span.active());
}

TEST(TracerTest, RaiiSpansBalance) {
  ScopedTracer scoped;
  {
    Span outer("outer", "run");
    EXPECT_TRUE(outer.active());
    EXPECT_EQ(scoped.get().open_spans(), 1);
    {
      Span inner("inner", "step");
      EXPECT_EQ(scoped.get().open_spans(), 2);
    }
    EXPECT_EQ(scoped.get().open_spans(), 1);
  }
  EXPECT_TRUE(scoped.get().Balanced());
  ASSERT_EQ(scoped.get().spans().size(), 2u);
  const SpanRecord& outer = scoped.get().spans()[0];
  const SpanRecord& inner = scoped.get().spans()[1];
  EXPECT_EQ(outer.parent, -1);
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.parent, 0);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_TRUE(outer.closed);
  EXPECT_TRUE(inner.closed);
}

TEST(TracerTest, UnbalancedSpansAreDetectable) {
  Tracer tracer;
  Tracer::Install(&tracer);
  int64_t id = tracer.OpenSpan("left-open", "step");
  EXPECT_FALSE(tracer.Balanced());
  EXPECT_EQ(tracer.open_spans(), 1);
  tracer.CloseSpan(id);
  EXPECT_TRUE(tracer.Balanced());
  Tracer::Install(nullptr);
}

TEST(TracerTest, OutOfOrderCloseDies) {
  Tracer tracer;
  int64_t outer = tracer.OpenSpan("outer", "step");
  tracer.OpenSpan("inner", "step");
  EXPECT_DEATH(tracer.CloseSpan(outer), "");
}

TEST(TracerTest, TwoClockDomains) {
  ScopedTracer scoped;
  Tracer& tracer = scoped.get();
  {
    Span parent("parent", "step");
    tracer.AdvanceSim(100.0);
    {
      Span child("child", "kernel");
      tracer.AdvanceSim(50.0);
    }
  }
  const SpanRecord& parent = tracer.spans()[0];
  const SpanRecord& child = tracer.spans()[1];
  // Sim clock: child covers [100, 150), fully inside the parent's [0, 150).
  EXPECT_DOUBLE_EQ(parent.sim_begin_us, 0.0);
  EXPECT_DOUBLE_EQ(parent.sim_end_us, 150.0);
  EXPECT_DOUBLE_EQ(child.sim_begin_us, 100.0);
  EXPECT_DOUBLE_EQ(child.sim_end_us, 150.0);
  // Host clock: monotone and nested.
  EXPECT_LE(parent.host_begin_us, child.host_begin_us);
  EXPECT_LE(child.host_end_us, parent.host_end_us);
  EXPECT_GE(child.HostDurationUs(), 0.0);
}

TEST(TracerTest, ServingClockIsSetNotAdvanced) {
  ScopedTracer scoped;
  Tracer& tracer = scoped.get();
  tracer.SetServeNow(1000.0);
  {
    Span batch("serve/batch#0", "serve");
    tracer.SetServeNow(1400.0);  // the scheduler jumps to the completion time
  }
  {
    Span step("engine/map", "step");  // serving clock stands still
  }
  const SpanRecord& batch = tracer.spans()[0];
  EXPECT_DOUBLE_EQ(batch.serve_begin_us, 1000.0);
  EXPECT_DOUBLE_EQ(batch.serve_end_us, 1400.0);
  EXPECT_DOUBLE_EQ(batch.ServeDurationUs(), 400.0);
  const SpanRecord& step = tracer.spans()[1];
  EXPECT_DOUBLE_EQ(step.ServeDurationUs(), 0.0);
}

TEST(TracerTest, MoveTransfersOwnership) {
  ScopedTracer scoped;
  {
    Span a("a", "step");
    Span b = std::move(a);
    EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(b.active());
  }
  EXPECT_TRUE(scoped.get().Balanced());
  EXPECT_EQ(scoped.get().spans().size(), 1u);
}

TEST(ChromeTraceTest, ExportsBalancedJsonWithBothTracks) {
  ScopedTracer scoped;
  {
    Span run("run", "run");
    scoped.get().AdvanceSim(10.0);
    Span step("engine/map", "step");
    step.Attr("note", std::string("quote\" and \\slash"));
    step.Attr("count", int64_t{3});
    step.Attr("ratio", 0.25);
  }
  std::string json = trace::ChromeTraceJson(scoped.get());
  EXPECT_TRUE(BalancedJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("host wall-clock"), std::string::npos);
  EXPECT_NE(json.find("simulated device"), std::string::npos);
  // Two "X" events per span: one per clock-domain track.
  size_t x_events = 0;
  for (size_t pos = 0; (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos; ++pos) {
    ++x_events;
  }
  EXPECT_EQ(x_events, 2u * scoped.get().spans().size());
}

TEST(ChromeTraceTest, OpenSpansExportAsIfClosed) {
  Tracer tracer;
  Tracer::Install(&tracer);
  tracer.OpenSpan("crashed-run", "run");
  std::string json = trace::ChromeTraceJson(tracer);
  Tracer::Install(nullptr);
  EXPECT_TRUE(BalancedJson(json)) << json;
  EXPECT_NE(json.find("crashed-run"), std::string::npos);
}

TEST(ChromeTraceTest, ServeSpansGetAThirdTrack) {
  ScopedTracer scoped;
  Tracer& tracer = scoped.get();
  {
    Span step("engine/map", "step");
  }
  // No serve span traced: the serving-clock track is omitted entirely.
  std::string without = trace::ChromeTraceJson(tracer);
  EXPECT_TRUE(BalancedJson(without)) << without;
  EXPECT_EQ(without.find("serving clock"), std::string::npos);
  EXPECT_EQ(without.find("\"tid\":2"), std::string::npos);

  tracer.SetServeNow(250.0);
  {
    Span batch("serve/batch#0", "serve");
    tracer.SetServeNow(750.0);
  }
  std::string with = trace::ChromeTraceJson(tracer);
  EXPECT_TRUE(BalancedJson(with)) << with;
  EXPECT_NE(with.find("serving clock"), std::string::npos);
  // Exactly one event lands on tid 2: the serve span at its serving-clock
  // coordinates. The step span stays on the host + sim tracks only.
  size_t tid2_events = 0;
  for (size_t pos = 0; (pos = with.find("\"tid\":2", pos)) != std::string::npos; ++pos) {
    ++tid2_events;
  }
  // One metadata (thread_name) record + one "X" event.
  EXPECT_EQ(tid2_events, 2u);
  EXPECT_NE(with.find("\"serve_us\":500"), std::string::npos) << with;
}

TEST(MetricsTest, CountersAndGaugesRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("plan_cache/hits").Add(3);
  registry.GetCounter("plan_cache/hits").Add(1);
  registry.GetGauge("engine/layer0/padding_ratio").Set(0.125);
  EXPECT_EQ(registry.GetCounter("plan_cache/hits").value(), 4);
  EXPECT_TRUE(registry.HasCounter("plan_cache/hits"));
  EXPECT_FALSE(registry.HasCounter("plan_cache/misses"));
  std::string json = registry.SnapshotJson();
  EXPECT_TRUE(BalancedJson(json)) << json;
  EXPECT_NE(json.find("\"plan_cache/hits\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"engine/layer0/padding_ratio\":0.125"), std::string::npos) << json;
}

TEST(MetricsTest, HistogramSnapshot) {
  MetricsRegistry registry;
  FixedHistogram& hist = registry.GetHistogram("serve/warm_host_ms", 0.0, 10.0, 5);
  hist.Add(-1.0);  // underflow
  hist.Add(1.0);
  hist.Add(3.0);
  hist.Add(11.0);  // overflow
  // Re-fetch with the same layout returns the same histogram.
  EXPECT_EQ(&registry.GetHistogram("serve/warm_host_ms", 0.0, 10.0, 5), &hist);
  EXPECT_EQ(hist.total_count(), 4u);
  EXPECT_EQ(hist.underflow(), 1u);
  EXPECT_EQ(hist.overflow(), 1u);
  std::string json = registry.SnapshotJson();
  EXPECT_TRUE(BalancedJson(json)) << json;
  EXPECT_NE(json.find("\"serve/warm_host_ms\""), std::string::npos);
  // Bucket width 2 over [0, 10): 1.0 lands in bucket 0, 3.0 in bucket 1.
  EXPECT_NE(json.find("\"counts\":[1,1,0,0,0]"), std::string::npos) << json;
}

TEST(MetricsTest, HistogramRelayoutDies) {
  MetricsRegistry registry;
  registry.GetHistogram("h", 0.0, 10.0, 5);
  EXPECT_DEATH(registry.GetHistogram("h", 0.0, 20.0, 5), "relayout");
}

// --- Engine integration: trace a full (tiny) network run.

PointCloud TestCloud(int64_t points, int64_t channels) {
  GeneratorConfig gen;
  gen.target_points = points;
  gen.channels = channels;
  gen.seed = 7;
  return GenerateCloud(DatasetKind::kRandom, gen);
}

TEST(EngineTraceTest, OneKernelSpanPerLaunchAndLayerCyclesReconcile) {
  DeviceConfig device_config = MakeRtx3090();
  EngineConfig config;
  config.kind = EngineKind::kMinuet;
  config.functional = false;
  Engine engine(config, device_config);
  engine.Prepare(MakeTinyUNet(4), 1);
  PointCloud cloud = TestCloud(1500, 4);

  ScopedTracer scoped;
  Tracer& tracer = scoped.get();
  RunResult result = engine.Run(cloud);

  // Every span closed, and exactly one kernel span per simulated launch.
  EXPECT_TRUE(tracer.Balanced());
  EXPECT_EQ(tracer.CountCategory("kernel"), engine.device().totals().num_launches);
  EXPECT_EQ(tracer.CountCategory("kernel"), result.total.launches);
  EXPECT_EQ(tracer.CountCategory("run"), 1);
  EXPECT_EQ(tracer.CountCategory("layer"),
            static_cast<int64_t>(result.layers.size()));

  // Kernel spans sit strictly below a layer or the run root, never at depth 0.
  const auto& spans = tracer.spans();
  auto is_descendant_of = [&](const SpanRecord& span, int64_t ancestor) {
    for (int64_t p = span.parent; p != -1; p = spans[static_cast<size_t>(p)].parent) {
      if (p == ancestor) {
        return true;
      }
    }
    return false;
  };
  for (const SpanRecord& span : spans) {
    if (span.category == "kernel") {
      EXPECT_GT(span.depth, 0) << span.name;
    }
  }

  // Per layer: the sum of the contained kernels' cycles, minus the recorded
  // stream-pool overlap saving, equals the layer's reported simulated cycles.
  int64_t layers_checked = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& layer = spans[i];
    if (layer.category != "layer") {
      continue;
    }
    double kernel_cycles = 0.0;
    for (const SpanRecord& span : spans) {
      if (span.category == "kernel" && is_descendant_of(span, static_cast<int64_t>(i))) {
        kernel_cycles += NumericAttr(span, "cycles");
      }
    }
    const double reported = NumericAttr(layer, "sim_cycles");
    const double overlap = NumericAttr(layer, "overlap_saved_cycles");
    EXPECT_NEAR(kernel_cycles - overlap, reported, 1e-6 * std::max(1.0, reported))
        << layer.name;
    // Cross-check against the engine's own per-layer record.
    const int64_t conv_index = static_cast<int64_t>(NumericAttr(layer, "conv_index"));
    ASSERT_LT(static_cast<size_t>(conv_index), result.layers.size());
    EXPECT_NEAR(reported, result.layers[static_cast<size_t>(conv_index)].cycles.TotalCycles(),
                1e-9);
    ++layers_checked;
  }
  EXPECT_EQ(layers_checked, static_cast<int64_t>(result.layers.size()));

  // Sim-clock containment: every child span nests inside its parent on the
  // simulated timeline as well as the host one.
  for (const SpanRecord& span : spans) {
    if (span.parent < 0) {
      continue;
    }
    const SpanRecord& parent = spans[static_cast<size_t>(span.parent)];
    EXPECT_GE(span.sim_begin_us, parent.sim_begin_us);
    EXPECT_LE(span.sim_end_us, parent.sim_end_us);
    EXPECT_GE(span.host_begin_us, parent.host_begin_us - 1e-6);
    EXPECT_LE(span.host_end_us, parent.host_end_us + 1e-6);
  }
}

TEST(EngineTraceTest, TracingDoesNotChangeSimulatedWork) {
  // The L2 model hashes real heap addresses, so cycle counts legitimately
  // drift with allocator placement between engine instances. Everything
  // address-independent — launches, blocks, lane ops, traffic — must be
  // bit-identical with and without a tracer installed.
  DeviceConfig device_config = MakeRtx3090();
  PointCloud cloud = TestCloud(1200, 4);
  auto run_once = [&](bool traced) {
    EngineConfig config;
    config.kind = EngineKind::kMinuet;
    config.functional = false;
    Engine engine(config, device_config);
    engine.Prepare(MakeTinyUNet(4), 1);
    ScopedTracer scoped;
    if (!traced) {
      trace::Tracer::Install(nullptr);
    }
    engine.Run(cloud);
    return engine.device().totals();
  };
  const KernelStats untraced = run_once(false);
  const KernelStats traced = run_once(true);
  EXPECT_EQ(untraced.num_launches, traced.num_launches);
  EXPECT_EQ(untraced.num_blocks, traced.num_blocks);
  EXPECT_EQ(untraced.lane_ops, traced.lane_ops);
  EXPECT_EQ(untraced.global_bytes_read, traced.global_bytes_read);
  EXPECT_EQ(untraced.global_bytes_written, traced.global_bytes_written);
  EXPECT_EQ(untraced.shared_bytes, traced.shared_bytes);
}

TEST(SessionStatsTest, SnapshotIncludesCacheAndPoolCounters) {
  DeviceConfig device_config = MakeRtx3090();
  EngineConfig config;
  config.kind = EngineKind::kMinuet;
  config.functional = false;
  Engine engine(config, device_config);
  engine.Prepare(MakeTinyUNet(4), 1);
  PointCloud cloud = TestCloud(900, 4);

  RunSession session(engine);
  session.Run(cloud);
  session.Run(cloud);
  session.Run(cloud);
  SessionStats stats = session.stats();
  EXPECT_EQ(stats.cold_runs, 1u);
  EXPECT_EQ(stats.warm_runs, 2u);
  EXPECT_EQ(stats.plan.hits, 2u);
  EXPECT_EQ(stats.plan.misses, 1u);
  EXPECT_EQ(stats.plan.evictions, 0u);
  EXPECT_GT(stats.pool.allocations, 0u);
  EXPECT_GT(stats.pool.reuses, 0u);
  EXPECT_EQ(stats.pool.outstanding, 0);

  MetricsRegistry registry;
  session.PublishMetrics(registry);
  EXPECT_EQ(registry.GetCounter("session/cold_runs").value(), 1);
  EXPECT_EQ(registry.GetCounter("session/warm_runs").value(), 2);
  EXPECT_EQ(registry.GetCounter("plan_cache/hits").value(), 2);
  EXPECT_GT(registry.GetCounter("workspace_pool/reuses").value(), 0);
}

TEST(DeviceMetricsTest, KernelAggregatesPublish) {
  DeviceConfig device_config = MakeRtx3090();
  EngineConfig config;
  config.kind = EngineKind::kMinuet;
  config.functional = false;
  Engine engine(config, device_config);
  engine.Prepare(MakeTinyUNet(4), 1);
  PointCloud cloud = TestCloud(800, 4);
  RunResult result = engine.Run(cloud);

  MetricsRegistry registry;
  engine.device().PublishMetrics(registry);
  EXPECT_EQ(registry.GetCounter("device/total/launches").value(), result.total.launches);
  // The structured naming convention shows up in the per-kernel aggregates.
  int64_t per_kernel_launches = 0;
  bool saw_structured_name = false;
  for (const auto& [name, stats] : engine.device().kernel_aggregates()) {
    per_kernel_launches += stats.num_launches;
    saw_structured_name = saw_structured_name || name.find('/') != std::string::npos;
  }
  EXPECT_EQ(per_kernel_launches, result.total.launches);
  EXPECT_TRUE(saw_structured_name);
  EXPECT_TRUE(registry.HasCounter("device/kernel/gmas/gemm/grouped_batch/launches"));

  PublishRunMetrics(result, device_config, registry);
  EXPECT_TRUE(registry.HasGauge("engine/layer0/padding_ratio"));
  EXPECT_TRUE(registry.HasGauge("engine/run/sim_ms"));
}

// The two artifacts of one run, a Chrome trace and a metrics snapshot, give
// the same profile in every column both define the same way: the run total,
// and per kernel its simulated ms, cycles, launches, blocks, waves, L2
// lookups and hit ratio, DRAM bandwidth utilisation and roofline class, and
// per layer its padding, launches and GEMM count. Three columns differ by
// definition and are not pinned: a kernel's occupancy (the device aggregate
// against a duration-weighted mean over launches), the arithmetic intensity
// of a kernel with no DRAM bytes (null in the snapshot, +inf summed from the
// spans) and a layer's sim ms (net of the stream-pool overlap in the
// snapshot, the layer span's serial duration in the trace).
TEST(EngineTraceTest, TraceAndMetricsArtifactsGiveTheSameProfile) {
  const DeviceConfig device_config = MakeRtx3090();
  EngineConfig config;
  config.kind = EngineKind::kMinuet;
  config.functional = false;
  Engine engine(config, device_config);
  engine.Prepare(MakeTinyUNet(4), 1);
  ScopedTracer scoped;
  const RunResult result = engine.Run(TestCloud(1500, 4));
  Tracer::Install(nullptr);
  MetricsRegistry registry;
  engine.device().PublishMetrics(registry);
  PublishRunMetrics(result, device_config, registry);

  auto load = [](const std::string& text) {
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(ParseJson(text, &doc, &error)) << error;
    prof::RunProfile profile;
    EXPECT_TRUE(prof::LoadRunProfile(doc, &profile, &error)) << error;
    return profile;
  };
  const prof::RunProfile traced = load(trace::ChromeTraceJson(scoped.get()));
  const prof::RunProfile metrics = load(registry.SnapshotJson());
  ASSERT_EQ(traced.source, "trace");
  ASSERT_EQ(metrics.source, "metrics");

  EXPECT_NEAR(traced.total_ms, metrics.total_ms, 1e-9);
  // Kernels of equal sim ms may list in either order; match them by name.
  std::map<std::string, const prof::KernelProfile*> traced_kernels;
  for (const prof::KernelProfile& k : traced.kernels) {
    traced_kernels[k.name] = &k;
  }
  ASSERT_EQ(traced_kernels.size(), metrics.kernels.size());
  for (const prof::KernelProfile& m : metrics.kernels) {
    SCOPED_TRACE(m.name);
    ASSERT_EQ(traced_kernels.count(m.name), 1u);
    const prof::KernelProfile& t = *traced_kernels[m.name];
    EXPECT_NEAR(t.millis, m.millis, 1e-9);
    EXPECT_NEAR(t.cycles, m.cycles, 1e-6);
    EXPECT_EQ(t.launches, m.launches);
    EXPECT_EQ(t.blocks, m.blocks);
    EXPECT_EQ(t.waves, m.waves);
    EXPECT_EQ(t.l2_lookups, m.l2_lookups);
    EXPECT_DOUBLE_EQ(t.l2_hit_ratio, m.l2_hit_ratio);
    EXPECT_NEAR(t.dram_bw_util, m.dram_bw_util, 1e-9);
    EXPECT_EQ(t.roofline, m.roofline);
  }
  ASSERT_EQ(traced.layers.size(), metrics.layers.size());
  for (size_t i = 0; i < metrics.layers.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "conv" << metrics.layers[i].conv_index);
    EXPECT_EQ(traced.layers[i].conv_index, metrics.layers[i].conv_index);
    EXPECT_DOUBLE_EQ(traced.layers[i].padding_ratio, metrics.layers[i].padding_ratio);
    EXPECT_EQ(traced.layers[i].launches, metrics.layers[i].launches);
    EXPECT_EQ(traced.layers[i].gemm_kernels, metrics.layers[i].gemm_kernels);
  }
}

}  // namespace
}  // namespace minuet
