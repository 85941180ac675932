#include "src/serve/flight_recorder.h"

#include <utility>

#include "src/util/json_writer.h"

namespace minuet {
namespace serve {

void FlightRecorder::RecordEvent(FlightEvent event) {
  events_.push_back(std::move(event));
  while (events_.size() > kEventCapacity) {
    events_.pop_front();
  }
}

void FlightRecorder::RecordWindow(const trace::TimeWindow& window) {
  windows_.push_back(window);
  while (windows_.size() > kWindowCapacity) {
    windows_.pop_front();
  }
}

std::string FlightRecorder::IncidentJson(const AlertEvent& trigger,
                                         const std::string& config_json) const {
  JsonWriter w;
  w.BeginObject();
  w.KV("incident", 1);
  w.Key("trigger");
  w.RawValue(AlertJson(trigger));
  w.Key("config");
  w.RawValue(config_json.empty() ? "null" : config_json);
  w.Key("events");
  w.BeginArray();
  for (const FlightEvent& event : events_) {
    w.BeginObject();
    w.KV("t_us", event.t_us);
    w.KV("device", static_cast<int64_t>(event.device));
    w.KV("kind", event.kind);
    w.KV("id", event.id);
    w.KV("value", event.value);
    w.EndObject();
  }
  w.EndArray();
  w.Key("windows");
  w.BeginArray();
  for (const trace::TimeWindow& window : windows_) {
    w.RawValue(trace::WindowJson(window));
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

}  // namespace serve
}  // namespace minuet
