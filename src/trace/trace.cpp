#include "src/trace/trace.h"

#include <algorithm>
#include <cstdio>

#include "src/util/check.h"
#include "src/util/json_writer.h"

namespace minuet {
namespace trace {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::HostNowUs() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

int64_t Tracer::OpenSpan(std::string name, std::string category) {
  SpanRecord record;
  record.name = std::move(name);
  record.category = std::move(category);
  record.parent = stack_.empty() ? -1 : stack_.back();
  record.depth = static_cast<int>(stack_.size());
  record.host_begin_us = HostNowUs();
  record.sim_begin_us = sim_now_us_;
  record.serve_begin_us = serve_now_us_;
  int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back(std::move(record));
  stack_.push_back(id);
  return id;
}

void Tracer::CloseSpan(int64_t id) {
  MINUET_CHECK(!stack_.empty()) << "CloseSpan with no open span";
  MINUET_CHECK_EQ(stack_.back(), id) << "spans must close innermost-first";
  SpanRecord& record = spans_[static_cast<size_t>(id)];
  record.host_end_us = HostNowUs();
  record.sim_end_us = sim_now_us_;
  record.serve_end_us = serve_now_us_;
  record.closed = true;
  stack_.pop_back();
}

void Tracer::SetAttr(int64_t id, std::string key, AttrValue value) {
  MINUET_CHECK_GE(id, 0);
  MINUET_CHECK_LT(id, static_cast<int64_t>(spans_.size()));
  spans_[static_cast<size_t>(id)].attrs.emplace_back(std::move(key), std::move(value));
}

void Tracer::SetServeTrack(int64_t id, int track) {
  MINUET_CHECK_GE(id, 0);
  MINUET_CHECK_LT(id, static_cast<int64_t>(spans_.size()));
  MINUET_CHECK_GE(track, 0);
  spans_[static_cast<size_t>(id)].serve_track = track;
}

void Tracer::AddServeFlow(std::string name, int64_t flow_id, char phase, int track) {
  MINUET_CHECK(phase == 's' || phase == 't' || phase == 'f')
      << "flow phase must be s/t/f, got '" << phase << "'";
  MINUET_CHECK_GE(track, 0);
  FlowRecord flow;
  flow.name = std::move(name);
  flow.flow_id = flow_id;
  flow.phase = phase;
  flow.track = track;
  flow.serve_us = serve_now_us_;
  flows_.push_back(std::move(flow));
}

int64_t Tracer::CountCategory(const std::string& category) const {
  int64_t count = 0;
  for (const SpanRecord& span : spans_) {
    count += span.category == category ? 1 : 0;
  }
  return count;
}

namespace {

void WriteAttr(JsonWriter& w, const std::string& key, const AttrValue& value) {
  w.Key(key);
  if (const int64_t* i = std::get_if<int64_t>(&value)) {
    w.Value(*i);
  } else if (const double* d = std::get_if<double>(&value)) {
    w.Value(*d);
  } else {
    w.Value(std::get<std::string>(value));
  }
}

// True for spans that live on the serving clock (the request scheduler's
// virtual time): the "serve" category and its sub-categories.
bool IsServeSpan(const SpanRecord& span) {
  return span.category.rfind("serve", 0) == 0;
}

// One "X" (complete) event on the given track. Chrome trace ts/dur are in
// microseconds, which all clock domains already use.
void WriteEvent(JsonWriter& w, const SpanRecord& span, int tid, double ts, double dur) {
  w.BeginObject();
  w.KV("name", span.name);
  w.KV("cat", span.category);
  w.KV("ph", "X");
  w.KV("pid", 0);
  w.KV("tid", tid);
  w.KV("ts", ts);
  w.KV("dur", dur);
  w.Key("args");
  w.BeginObject();
  // Both core clock domains on every event, so either track tells the full
  // story; serve spans carry their serving-clock duration as well.
  w.KV("host_us", span.HostDurationUs());
  w.KV("sim_us", span.SimDurationUs());
  if (IsServeSpan(span)) {
    w.KV("serve_us", span.ServeDurationUs());
  }
  for (const auto& [key, value] : span.attrs) {
    WriteAttr(w, key, value);
  }
  w.EndObject();
  w.EndObject();
}

void WriteThreadName(JsonWriter& w, int tid, const char* name) {
  w.BeginObject();
  w.KV("name", "thread_name");
  w.KV("ph", "M");
  w.KV("pid", 0);
  w.KV("tid", tid);
  w.Key("args");
  w.BeginObject();
  w.KV("name", name);
  w.EndObject();
  w.EndObject();
}

}  // namespace

std::string ChromeTraceJson(const Tracer& tracer) {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.Value("ms");
  w.Key("traceEvents");
  w.BeginArray();

  // Track names: tid 0 = host wall-clock, tid 1 = simulated device time,
  // tid 2 = serving clock (only when a serve span was traced). Fleet runs
  // put every replica's serve spans on its own track (tid 2 + serve_track):
  // track 0 keeps the classic "serving clock" name, the rest are labelled by
  // device id.
  WriteThreadName(w, 0, "host wall-clock");
  WriteThreadName(w, 1, "simulated device");
  int max_serve_track = -1;
  for (const SpanRecord& span : tracer.spans()) {
    if (IsServeSpan(span)) {
      max_serve_track = std::max(max_serve_track, span.serve_track);
    }
  }
  for (const FlowRecord& flow : tracer.flows()) {
    max_serve_track = std::max(max_serve_track, flow.track);
  }
  for (int track = 0; track <= max_serve_track; ++track) {
    if (track == 0) {
      WriteThreadName(w, 2, "serving clock");
    } else {
      const std::string name = "serving clock dev" + std::to_string(track);
      WriteThreadName(w, 2 + track, name.c_str());
    }
  }

  const double host_now = tracer.HostNowUs();
  const double sim_now = tracer.sim_now_us();
  const double serve_now = tracer.serve_now_us();
  for (SpanRecord span : tracer.spans()) {
    if (!span.closed) {
      // Export still-open spans as closed at "now" so partial traces load.
      span.host_end_us = host_now;
      span.sim_end_us = sim_now;
      span.serve_end_us = serve_now;
    }
    WriteEvent(w, span, /*tid=*/0, span.host_begin_us, span.HostDurationUs());
    WriteEvent(w, span, /*tid=*/1, span.sim_begin_us, span.SimDurationUs());
    if (IsServeSpan(span)) {
      WriteEvent(w, span, /*tid=*/2 + span.serve_track, span.serve_begin_us,
                 span.ServeDurationUs());
    }
  }
  // Flow arrows between serving-clock slices. "bp":"e" binds step/finish
  // events to the slice that encloses their timestamp (the batch span), so
  // the arrow lands where the request actually ran.
  for (const FlowRecord& flow : tracer.flows()) {
    w.BeginObject();
    w.KV("name", flow.name);
    w.KV("cat", "serve.flow");
    w.Key("ph");
    w.Value(std::string_view(&flow.phase, 1));
    w.KV("id", flow.flow_id);
    w.KV("pid", 0);
    w.KV("tid", 2 + flow.track);
    w.KV("ts", flow.serve_us);
    if (flow.phase != 's') {
      w.KV("bp", "e");
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

bool WriteChromeTrace(const Tracer& tracer, const std::string& path) {
  return WriteTextFile(path, ChromeTraceJson(tracer));
}

}  // namespace trace
}  // namespace minuet
