// minuet::trace time-series registry — fixed-interval windowed rollups on a
// virtual clock, the streaming complement of the end-of-run MetricsRegistry.
//
// Everything the metrics registry snapshots is a single number for the whole
// run; a long-running serving deployment needs the same signals *as they
// evolve*. The TimeSeriesRegistry chops a virtual clock (in practice the
// serving clock of src/serve) into fixed windows of `interval_us` and rolls
// every recorded sample into its window:
//
//   Count(name, t, delta)    — counter: per-window sum (a rate once divided
//                              by the interval);
//   Sample(name, t, value)   — gauge: per-window last/min/max/samples;
//   Observe(name, t, value)  — distribution: a mergeable log-bucket digest
//                              per window, exported as count/sum/min/max and
//                              interpolated p50/p95/p99.
//
// Windows close deterministically on clock boundaries: the event loop calls
// AdvanceTo(t) before processing an event at time t, which closes (and emits,
// densely, empty windows included) every window whose end <= t. Recording is
// permitted into any window that has not closed — including *future* windows,
// which is how the serving scheduler attributes a batch's busy time across
// the windows it will span — and CHECK-fails on a closed window, so samples
// can neither be dropped nor double-counted by construction. Because the
// clock is virtual and every caller is single-threaded and deterministic, two
// runs of the same workload produce byte-identical timelines.
//
// Export: TimelineJsonl() emits one JSON object per line — a header line
// {"timeline":1,"interval_us":W} followed by one line per closed window —
// the artifact minuet_serve --timeline writes, minuet_prof timeline renders,
// and bench/byte_compare.sh gates. Parse it back with ReadJsonLinesFile
// (src/util/json_reader).
#ifndef SRC_TRACE_TIMESERIES_H_
#define SRC_TRACE_TIMESERIES_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace minuet {
namespace trace {

// Mergeable fixed-layout histogram for one window of one distribution series.
// Buckets are logarithmic — 8 linear sub-buckets per power of two over
// [1, 2^32), plus an underflow bucket for [0, 1) and an overflow bucket —
// so two digests (from two windows, or the same window of two replicas) merge
// by adding counts, and quantiles interpolate inside a bucket. Values must be
// non-negative (serving-clock durations and counts always are; negatives are
// clamped into the underflow bucket). The layout is fixed at compile time so
// merged digests never need re-binning.
class WindowDigest {
 public:
  static constexpr int kSubBuckets = 8;   // per octave
  static constexpr int kOctaves = 32;     // [2^0, 2^32)
  static constexpr int kBuckets = 2 + kOctaves * kSubBuckets;  // + under/overflow

  void Add(double value);
  void Merge(const WindowDigest& other);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  // 0.0 sentinels when empty, like FixedHistogram (JSON must stay null-free).
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  // Interpolated q-quantile (q in [0,1]); clamped to [min(), max()] so digest
  // coarseness can never report a value outside the observed range. Empty
  // digests return 0.0.
  double Quantile(double q) const;

 private:
  static int BucketIndex(double value);
  static double BucketLower(int index);
  static double BucketUpper(int index);

  std::vector<uint64_t> buckets_;  // allocated on first Add, kBuckets wide
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Per-window gauge rollup.
struct GaugeWindow {
  double last = 0.0;
  double min = 0.0;
  double max = 0.0;
  int64_t samples = 0;
};

// One closed window: every series that recorded into [start_us, end_us).
// Series maps are ordered so exports are deterministic.
struct TimeWindow {
  int64_t index = 0;
  double start_us = 0.0;
  double end_us = 0.0;
  std::map<std::string, double> counters;
  std::map<std::string, GaugeWindow> gauges;
  std::map<std::string, WindowDigest> dists;

  const double* Counter(const std::string& name) const;
  const GaugeWindow* Gauge(const std::string& name) const;
  // Counter value or 0.0 when the series did not record in this window.
  double CounterOr(const std::string& name, double fallback) const;
};

class TimeSeriesRegistry {
 public:
  explicit TimeSeriesRegistry(double interval_us);
  TimeSeriesRegistry(const TimeSeriesRegistry&) = delete;
  TimeSeriesRegistry& operator=(const TimeSeriesRegistry&) = delete;

  double interval_us() const { return interval_us_; }

  // Recording. `t_us` is the virtual clock; the sample lands in window
  // floor(t_us / interval_us), which must not have closed yet (CHECK).
  void Count(const std::string& name, double t_us, double delta);
  void Sample(const std::string& name, double t_us, double value);
  void Observe(const std::string& name, double t_us, double value);

  // Closes every window whose end <= t_us, in index order, empty windows
  // included (the timeline is dense from window 0 once anything closed).
  // Returns the [begin, end) index range of the newly closed windows within
  // closed(). The clock may not move backwards (CHECK).
  std::pair<size_t, size_t> AdvanceTo(double t_us);

  // Closes every window still open, through the last one holding any sample
  // (end of run); same return convention as AdvanceTo. Further recording
  // must use later timestamps.
  std::pair<size_t, size_t> Flush();

  const std::vector<TimeWindow>& closed() const { return closed_; }

  // Whole-run totals per counter series (sum over every closed window) —
  // the consistency bridge to the end-of-run MetricsRegistry counters.
  std::map<std::string, double> CounterTotals() const;

  // JSONL export (see file comment). WriteTimeline returns false when the
  // file cannot be written.
  std::string TimelineJsonl() const;
  bool WriteTimeline(const std::string& path) const;

 private:
  int64_t WindowOf(double t_us) const;
  TimeWindow& OpenWindow(int64_t index);
  void CloseThrough(int64_t last_index);

  double interval_us_;
  double last_advance_us_ = 0.0;         // AdvanceTo high-water mark
  int64_t next_to_close_ = 0;            // lowest window index still open
  std::map<int64_t, TimeWindow> open_;   // open windows by index (sparse)
  std::vector<TimeWindow> closed_;       // dense, ascending index from 0
};

// Serialises one closed window as a single JSON object (no trailing newline);
// shared by the timeline export and the flight recorder's incident dumps.
std::string WindowJson(const TimeWindow& window);

}  // namespace trace
}  // namespace minuet

#endif  // SRC_TRACE_TIMESERIES_H_
