#include "src/serve/telemetry.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/serve/arrival.h"
#include "src/serve/scheduler.h"
#include "src/util/check.h"
#include "src/util/json_writer.h"

namespace minuet {
namespace serve {

namespace {

std::string DevPrefix(int device) { return "dev" + std::to_string(device) + "/"; }

}  // namespace

ServeTelemetry::ServeTelemetry(const TelemetryConfig& config)
    : config_(config), series_(config.interval_us) {}

void ServeTelemetry::BeginRun(int num_devices, const SchedulerConfig& scheduler) {
  MINUET_CHECK(health_ == nullptr)
      << "a ServeTelemetry instance covers exactly one run: its windows and "
      << "alert state are cumulative and cannot restart from clock zero";
  num_devices_ = num_devices;
  health_ = std::make_unique<HealthEngine>(num_devices, scheduler.queue_capacity,
                                           config_.interval_us);
  JsonWriter w;
  w.BeginObject();
  w.KV("num_devices", static_cast<int64_t>(num_devices));
  w.KV("interval_us", config_.interval_us);
  w.KV("slo_target", kSloTarget);
  w.KV("policy", AdmissionPolicyName(scheduler.policy));
  w.KV("queue_capacity", scheduler.queue_capacity);
  w.KV("max_batch_size", scheduler.max_batch_size);
  w.KV("max_queue_delay_us", scheduler.max_queue_delay_us);
  w.KV("slo_us", scheduler.slo_us);
  w.EndObject();
  config_json_ = w.TakeString();
}

void ServeTelemetry::IngestClosed(size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    const trace::TimeWindow& window = series_.closed()[i];
    recorder_.RecordWindow(window);
    if (health_ == nullptr) {
      continue;
    }
    std::vector<AlertEvent> edges;
    health_->OnWindow(window, &edges);
    for (AlertEvent& edge : edges) {
      FlightEvent event;
      event.t_us = edge.t_us;
      event.device = edge.device;
      event.kind = "alert";
      event.id = edge.window;
      event.value = edge.firing ? 1.0 : 0.0;
      recorder_.RecordEvent(std::move(event));
      if (edge.firing && incident_json_.empty()) {
        incident_json_ = recorder_.IncidentJson(edge, config_json_);
      }
      alerts_.push_back(std::move(edge));
    }
  }
}

void ServeTelemetry::AdvanceTo(double t_us) {
  MINUET_CHECK_GE(t_us, last_advance_us_) << "the serving clock never moves backwards";
  last_advance_us_ = t_us;
  const auto [begin, end] = series_.AdvanceTo(t_us);
  IngestClosed(begin, end);
}

void ServeTelemetry::OnArrival(double t_us, int device, int64_t request_id,
                               int64_t queue_depth) {
  series_.Count("fleet/offered", t_us, 1.0);
  series_.Count("fleet/admitted", t_us, 1.0);
  const std::string prefix = DevPrefix(device);
  series_.Count(prefix + "admitted", t_us, 1.0);
  series_.Sample(prefix + "queue_depth", t_us, static_cast<double>(queue_depth));
  recorder_.RecordEvent(
      {t_us, device, "arrival", request_id, static_cast<double>(queue_depth)});
}

void ServeTelemetry::OnShed(double t_us, int device, int64_t request_id) {
  series_.Count("fleet/offered", t_us, 1.0);
  series_.Count("fleet/shed", t_us, 1.0);
  series_.Count(DevPrefix(device) + "shed", t_us, 1.0);
  recorder_.RecordEvent({t_us, device, "shed", request_id, 0.0});
}

void ServeTelemetry::OnDispatch(double t_us, int device, int64_t batch_id,
                                int64_t batch_size, int64_t warm, int64_t plan_hits,
                                int64_t plan_misses, double flight_end_us,
                                int64_t queue_depth) {
  const std::string prefix = DevPrefix(device);
  series_.Count(prefix + "batches", t_us, 1.0);
  series_.Count(prefix + "dispatched", t_us, static_cast<double>(batch_size));
  series_.Count(prefix + "warm", t_us, static_cast<double>(warm));
  series_.Count(prefix + "plan_hits", t_us, static_cast<double>(plan_hits));
  series_.Count(prefix + "plan_misses", t_us, static_cast<double>(plan_misses));
  series_.Sample(prefix + "queue_depth", t_us, static_cast<double>(queue_depth));
  series_.Observe(prefix + "batch_size", t_us, static_cast<double>(batch_size));

  // Busy time is attributed at dispatch, when the whole service interval
  // [t_us, flight_end_us) is already known, window by window — recording
  // into future (still-open) windows is exactly what the registry permits.
  const double w = series_.interval_us();
  int64_t index = static_cast<int64_t>(std::floor(t_us / w));
  while (true) {
    const double window_start = static_cast<double>(index) * w;
    if (window_start >= flight_end_us) {
      break;
    }
    const double lo = std::max(t_us, window_start);
    const double hi = std::min(flight_end_us, window_start + w);
    if (hi > lo) {
      series_.Count(prefix + "busy_us", lo, hi - lo);
      series_.Count("fleet/busy_us", lo, hi - lo);
    }
    ++index;
  }

  recorder_.RecordEvent({t_us, device, "dispatch", batch_id, static_cast<double>(batch_size)});
}

void ServeTelemetry::OnCompletion(double t_us, int device, int64_t request_id,
                                  double queue_us, double batch_delay_us,
                                  double latency_us, bool slo_ok) {
  const std::string prefix = DevPrefix(device);
  series_.Count("fleet/completed", t_us, 1.0);
  series_.Count(prefix + "completed", t_us, 1.0);
  if (slo_ok) {
    series_.Count("fleet/slo_ok", t_us, 1.0);
    series_.Count(prefix + "slo_ok", t_us, 1.0);
  }
  series_.Observe("fleet/latency_us", t_us, latency_us);
  series_.Observe("fleet/queue_us", t_us, queue_us);
  series_.Observe("fleet/batch_delay_us", t_us, batch_delay_us);
  series_.Observe(prefix + "latency_us", t_us, latency_us);
  recorder_.RecordEvent({t_us, device, "completion", request_id, latency_us});
}

void ServeTelemetry::Finish() {
  const auto [begin, end] = series_.Flush();
  IngestClosed(begin, end);
}

std::string ServeTelemetry::CaptureIncident(const std::string& reason) const {
  AlertEvent trigger;
  trigger.t_us = last_advance_us_;
  trigger.window = series_.closed().empty() ? 0 : series_.closed().back().index;
  trigger.device = -1;
  trigger.kind = reason;
  trigger.firing = true;
  trigger.detail = "synthetic trigger: " + reason;
  return recorder_.IncidentJson(trigger, config_json_);
}

}  // namespace serve
}  // namespace minuet
