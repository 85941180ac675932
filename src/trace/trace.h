// minuet::trace — hierarchical span tracing with two clock domains.
//
// Spans form a tree (Run → layer → step → simulated kernel). Every span
// records both clocks the system cares about: host wall-clock microseconds
// (what the orchestration actually costs on this machine) and simulated
// device microseconds (what the modelled GPU would spend). The simulated
// clock is a serial timeline advanced only by `Device` kernel launches via
// AdvanceSim(); engine/step spans sample it at open and close, so children
// always nest inside parents on both timelines.
//
// Tracing is opt-in and near-zero cost when off: a single thread-local
// pointer is consulted (`Tracer::Get()`), and every instrumentation site
// no-ops when it is null. Nothing is allocated, formatted or timed unless a
// tracer has been installed with `Tracer::Install()`. Benches therefore
// report identical numbers with and without the subsystem compiled in.
//
// Export: WriteChromeTrace() emits Chrome trace-event JSON ("X" complete
// events) loadable in Perfetto / chrome://tracing. The two clock domains
// appear as two tracks of one process: tid 0 = host wall-clock, tid 1 =
// simulated device time. Span attributes (KernelStats payloads, per-layer
// cycle totals) become event `args`.
//
// A tracer is confined to the thread that installed it: Install() sets a
// thread-local pointer, so kernels that worker threads launch (Autotune's
// forked devices) never reach it, and a Tracer itself needs no lock.
#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace minuet {
namespace trace {

using AttrValue = std::variant<int64_t, double, std::string>;

struct SpanRecord {
  std::string name;
  std::string category;  // "run" | "layer" | "step" | "kernel" | "serve" | free-form
  int64_t parent = -1;   // index into Tracer::spans(), -1 for roots
  int depth = 0;
  double host_begin_us = 0.0;
  double host_end_us = 0.0;
  double sim_begin_us = 0.0;
  double sim_end_us = 0.0;
  // Third clock domain: the serving clock a request scheduler advances (the
  // virtual time requests arrive, queue and complete in). Recorded for every
  // span but only exported for "serve"-category spans — all others open and
  // close while the serving clock stands still.
  double serve_begin_us = 0.0;
  double serve_end_us = 0.0;
  // Which serving-clock track the span renders on: 0 is the classic single
  // device, fleet schedulers give every replica its own track so per-device
  // batch timelines don't overdraw each other (exported as tid 2 + track).
  int serve_track = 0;
  bool closed = false;
  std::vector<std::pair<std::string, AttrValue>> attrs;

  double HostDurationUs() const { return host_end_us - host_begin_us; }
  double SimDurationUs() const { return sim_end_us - sim_begin_us; }
  double ServeDurationUs() const { return serve_end_us - serve_begin_us; }
};

// One Chrome trace flow event on a serving-clock track: "s" (start), "t"
// (step) and "f" (finish) events sharing a flow id render as arrows between
// the slices that enclose them, so Perfetto draws each request's causal path
// arrival -> batch dispatch -> batch completion across replica tracks. Flow
// events live purely on the serving clock (no host timestamps), so they
// byte-compare across replays like every other serve artifact.
struct FlowRecord {
  std::string name;      // display name, e.g. "req#12"
  int64_t flow_id = 0;   // shared across the s/t/f events of one request
  char phase = 's';      // 's' | 't' | 'f'
  int track = 0;         // serving-clock track (exported as tid 2 + track)
  double serve_us = 0.0; // serving-clock timestamp (captured at record time)
};

class Tracer {
 public:
  Tracer();

  // Per-thread installation point. Get() is the one branch every disabled
  // instrumentation site pays. Install(nullptr) uninstalls.
  static Tracer* Get() { return installed_; }
  static void Install(Tracer* tracer) { installed_ = tracer; }

  // Opens a span under the currently open span (or as a root) and returns
  // its id. Timestamps: host = now, sim = current simulated clock.
  int64_t OpenSpan(std::string name, std::string category);

  // Closes the span. Spans must close in LIFO order (RAII enforces this);
  // closing out of order is checked.
  void CloseSpan(int64_t id);

  void SetAttr(int64_t id, std::string key, AttrValue value);

  // Assigns a serve-category span to a per-device serving-clock track (see
  // SpanRecord::serve_track). No-op semantics for non-serve spans: the field
  // is recorded but only serve spans are exported on serving-clock tracks.
  void SetServeTrack(int64_t id, int track);

  // Records a flow event at the current serving clock (position it with
  // SetServeNow first, like serve spans). `phase` is 's', 't' or 'f'.
  void AddServeFlow(std::string name, int64_t flow_id, char phase, int track);

  // Advances the simulated device clock; called by Device per kernel launch
  // while the kernel's span is open.
  void AdvanceSim(double sim_us) { sim_now_us_ += sim_us; }

  // Sets the serving clock (src/serve's event-driven virtual time). The
  // scheduler positions it before opening/closing serve-category spans; it is
  // a set, not an advance, because the serving clock jumps over idle gaps the
  // device timeline never sees.
  void SetServeNow(double serve_us) { serve_now_us_ = serve_us; }

  double HostNowUs() const;
  double sim_now_us() const { return sim_now_us_; }
  double serve_now_us() const { return serve_now_us_; }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<FlowRecord>& flows() const { return flows_; }
  // Number of spans opened but not yet closed. 0 == balanced.
  int64_t open_spans() const { return static_cast<int64_t>(stack_.size()); }
  bool Balanced() const { return stack_.empty(); }

  // Spans in `category`, e.g. how many kernel launches were traced.
  int64_t CountCategory(const std::string& category) const;

 private:
  static inline thread_local Tracer* installed_ = nullptr;

  std::chrono::steady_clock::time_point epoch_;
  double sim_now_us_ = 0.0;
  double serve_now_us_ = 0.0;
  std::vector<SpanRecord> spans_;
  std::vector<FlowRecord> flows_;
  std::vector<int64_t> stack_;  // open span ids, innermost last
};

// RAII span handle. Construction is a no-op when no tracer is installed, so
// `trace::Span span("step/gather", "step");` costs one branch when off.
class Span {
 public:
  Span() = default;
  Span(std::string name, std::string category) {
    if (Tracer* tracer = Tracer::Get()) {
      id_ = tracer->OpenSpan(std::move(name), std::move(category));
    }
  }
  Span(Span&& other) noexcept : id_(other.id_) { other.id_ = -1; }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      Close();
      id_ = other.id_;
      other.id_ = -1;
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { Close(); }

  // True when a tracer is installed; use to skip building span names.
  static bool Enabled() { return Tracer::Get() != nullptr; }

  bool active() const { return id_ >= 0; }

  void Attr(std::string key, AttrValue value) {
    if (id_ >= 0) {
      Tracer::Get()->SetAttr(id_, std::move(key), std::move(value));
    }
  }

  void Close() {
    if (id_ >= 0) {
      Tracer::Get()->CloseSpan(id_);
      id_ = -1;
    }
  }

 private:
  int64_t id_ = -1;
};

// Chrome trace-event JSON for the recorded spans (see file comment). Open
// spans are exported as-if closed at the current clocks, so a crashed run's
// partial trace still loads. Spans in the "serve" category additionally
// appear on a third track (tid 2, "serving clock") at their serving-clock
// coordinates; the track is omitted entirely when no serve span was traced.
std::string ChromeTraceJson(const Tracer& tracer);

// Writes ChromeTraceJson to `path`. Returns false if the file cannot be
// opened or written.
bool WriteChromeTrace(const Tracer& tracer, const std::string& path);

}  // namespace trace
}  // namespace minuet

#endif  // SRC_TRACE_TRACE_H_
