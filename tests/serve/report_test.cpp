// Serve/fleet report hygiene: the JSON artifacts must round-trip through the
// repo's own json_reader with every number finite — never null, which is how
// JsonWriter spells NaN/Inf. The adversarial input is the all-shed-at-t0 run,
// whose summary divides by zero everywhere if unguarded.
#include "src/serve/report.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/gpusim/device_config.h"
#include "src/serve/arrival.h"
#include "src/serve/fleet.h"
#include "src/util/json_reader.h"

namespace minuet {
namespace serve {
namespace {

std::unique_ptr<Engine> NewEngine(const DeviceConfig& device) {
  EngineConfig config;
  config.functional = false;
  auto engine = std::make_unique<Engine>(config, device);
  engine->Prepare(MakeTinyUNet(4), 1);
  return engine;
}

Request Req(int64_t id, double arrival_us) {
  Request r;
  r.id = id;
  r.arrival_us = arrival_us;
  r.points = 300;
  r.dataset = DatasetKind::kRandom;
  r.cloud_seed = 5;
  return r;
}

// Recursively asserts no null appears anywhere in the document. A null in a
// serve report means some ratio went NaN/Inf and JsonWriter coerced it.
void ExpectNoNulls(const JsonValue& value, const std::string& path) {
  EXPECT_FALSE(value.is_null()) << "null at " << path;
  if (value.is_object()) {
    for (const auto& [key, child] : value.AsObject()) {
      ExpectNoNulls(child, path + "." + key);
    }
  } else if (value.is_array()) {
    for (size_t i = 0; i < value.AsArray().size(); ++i) {
      ExpectNoNulls(value.AsArray()[i], path + "[" + std::to_string(i) + "]");
    }
  }
}

// A single-device deployment: a fleet of one replica.
FleetConfig OneDevice(const SchedulerConfig& config) {
  FleetConfig fleet;
  fleet.scheduler = config;
  return fleet;
}

TEST(ServeReportTest, AllShedAtTimeZeroRoundTripsWithoutNulls) {
  auto engine = NewEngine(MakeRtx3090());
  SchedulerConfig config;
  config.queue_capacity = 0;  // shed everything
  FleetScheduler scheduler({engine.get()}, OneDevice(config));
  FleetResult result = scheduler.Run({Req(0, 0.0), Req(1, 0.0), Req(2, 0.0)});
  ASSERT_EQ(result.summary.fleet.shed, 3);
  ASSERT_DOUBLE_EQ(result.summary.fleet.duration_us, 0.0);

  TraceConfig arrival;
  arrival.num_requests = 3;
  ServeReportContext context{"RTX 3090", "TinyUNet", "Minuet", "fp32"};
  const std::string json = FleetReportJson(result, arrival, context, nullptr);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error;
  ExpectNoNulls(doc, "$");
  const JsonValue* summary = doc.Find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_DOUBLE_EQ(summary->Find("shed_rate")->AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(summary->Find("offered_rps")->AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(summary->Find("utilization")->AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(summary->Find("latency_p99_us")->AsDouble(), 0.0);
}

TEST(ServeReportTest, EmptyTraceRoundTripsWithoutNulls) {
  auto engine = NewEngine(MakeRtx3090());
  FleetScheduler scheduler({engine.get()}, OneDevice(SchedulerConfig{}));
  FleetResult result = scheduler.Run(std::vector<Request>{});
  TraceConfig arrival;
  arrival.num_requests = 0;
  ServeReportContext context{"RTX 3090", "TinyUNet", "Minuet", "fp32"};
  const std::string json = FleetReportJson(result, arrival, context, nullptr);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error;
  ExpectNoNulls(doc, "$");
}

TEST(FleetReportTest, AllShedFleetRoundTripsWithoutNulls) {
  auto e0 = NewEngine(MakeRtx3090());
  auto e1 = NewEngine(MakeA100());
  FleetConfig config;
  config.scheduler.queue_capacity = 0;
  FleetScheduler fleet({e0.get(), e1.get()}, config);
  FleetResult result = fleet.Run({Req(0, 0.0), Req(1, 0.0)});
  ASSERT_EQ(result.summary.fleet.shed, 2);

  TraceConfig arrival;
  arrival.num_requests = 2;
  ServeReportContext context{"3090,a100", "TinyUNet", "Minuet", "fp32"};
  const std::string json = FleetReportJson(result, arrival, context, nullptr);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error;
  ExpectNoNulls(doc, "$");
  // The fleet section names both replicas and keeps the version envelope a
  // plain serve report (minuet_prof reads either kind).
  EXPECT_DOUBLE_EQ(doc.Find("serve_report")->AsDouble(), 1.0);
  const JsonValue* fleet_section = doc.Find("fleet");
  ASSERT_NE(fleet_section, nullptr);
  EXPECT_DOUBLE_EQ(fleet_section->Find("num_devices")->AsDouble(), 2.0);
  ASSERT_EQ(fleet_section->Find("devices")->AsArray().size(), 2u);
  EXPECT_EQ(fleet_section->Find("routing")->AsString(), "least-loaded");
}

TEST(FleetReportTest, FleetRunCarriesDeviceOnRecords) {
  auto e0 = NewEngine(MakeRtx3090());
  auto e1 = NewEngine(MakeA100());
  FleetConfig config;
  config.routing = RoutingPolicy::kRoundRobin;
  FleetScheduler fleet({e0.get(), e1.get()}, config);
  FleetResult result = fleet.Run({Req(0, 0.0), Req(1, 1e6)});

  TraceConfig arrival;
  arrival.num_requests = 2;
  ServeReportContext context{"3090,a100", "TinyUNet", "Minuet", "fp32"};
  const std::string json = FleetReportJson(result, arrival, context, nullptr);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error;
  const auto& requests = doc.Find("requests")->AsArray();
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_DOUBLE_EQ(requests[0].Find("device")->AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(requests[1].Find("device")->AsDouble(), 1.0);
  for (const JsonValue& batch : doc.Find("batches")->AsArray()) {
    ASSERT_NE(batch.Find("device"), nullptr);
  }
}

}  // namespace
}  // namespace serve
}  // namespace minuet
