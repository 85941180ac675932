#include "src/trace/timeseries.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/util/check.h"
#include "src/util/json_writer.h"

namespace minuet {
namespace trace {

// --- WindowDigest ----------------------------------------------------------

int WindowDigest::BucketIndex(double value) {
  if (!(value >= 1.0)) {  // negatives and NaN clamp into the underflow bucket
    return 0;
  }
  const int octave = std::ilogb(value);
  if (octave >= kOctaves) {
    return kBuckets - 1;  // overflow
  }
  // value / 2^octave is in [1, 2); spread it over kSubBuckets linear slots.
  const double frac = std::ldexp(value, -octave) - 1.0;
  int sub = static_cast<int>(frac * kSubBuckets);
  sub = std::min(sub, kSubBuckets - 1);
  return 1 + octave * kSubBuckets + sub;
}

double WindowDigest::BucketLower(int index) {
  if (index <= 0) {
    return 0.0;
  }
  if (index >= kBuckets - 1) {
    return std::ldexp(1.0, kOctaves);
  }
  const int octave = (index - 1) / kSubBuckets;
  const int sub = (index - 1) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, octave);
}

double WindowDigest::BucketUpper(int index) {
  if (index >= kBuckets - 1) {
    return std::ldexp(1.0, kOctaves);  // open-ended; quantiles clamp to max()
  }
  return BucketLower(index + 1);
}

void WindowDigest::Add(double value) {
  if (buckets_.empty()) {
    buckets_.assign(kBuckets, 0);
  }
  ++buckets_[static_cast<size_t>(BucketIndex(value))];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

void WindowDigest::Merge(const WindowDigest& other) {
  if (other.count_ == 0) {
    return;
  }
  if (buckets_.empty()) {
    buckets_.assign(kBuckets, 0);
  }
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<size_t>(i)] += other.buckets_[static_cast<size_t>(i)];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double WindowDigest::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  // Rank in [1, count]; walk the cumulative counts to its bucket and
  // interpolate linearly inside it.
  const double rank = q * static_cast<double>(count_ - 1) + 1.0;
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const uint64_t n = buckets_[static_cast<size_t>(i)];
    if (n == 0) {
      continue;
    }
    if (static_cast<double>(seen + n) >= rank) {
      const double within = (rank - static_cast<double>(seen)) / static_cast<double>(n);
      const double lo = BucketLower(i);
      const double hi = BucketUpper(i);
      const double value = lo + (hi - lo) * within;
      return std::min(max(), std::max(min(), value));
    }
    seen += n;
  }
  return max();
}

// --- TimeWindow ------------------------------------------------------------

const double* TimeWindow::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? nullptr : &it->second;
}

const GaugeWindow* TimeWindow::Gauge(const std::string& name) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? nullptr : &it->second;
}

double TimeWindow::CounterOr(const std::string& name, double fallback) const {
  const double* value = Counter(name);
  return value != nullptr ? *value : fallback;
}

// --- TimeSeriesRegistry ----------------------------------------------------

TimeSeriesRegistry::TimeSeriesRegistry(double interval_us) : interval_us_(interval_us) {
  MINUET_CHECK_GT(interval_us, 0.0) << "time-series windows need a positive interval";
}

int64_t TimeSeriesRegistry::WindowOf(double t_us) const {
  MINUET_CHECK_GE(t_us, 0.0) << "the virtual clock never goes negative";
  return static_cast<int64_t>(std::floor(t_us / interval_us_));
}

TimeWindow& TimeSeriesRegistry::OpenWindow(int64_t index) {
  MINUET_CHECK_GE(index, next_to_close_)
      << "recording into a closed time-series window would drop the sample "
      << "from the exported timeline (window " << index << ", already closed "
      << "through " << next_to_close_ - 1 << ")";
  auto it = open_.find(index);
  if (it == open_.end()) {
    TimeWindow window;
    window.index = index;
    window.start_us = static_cast<double>(index) * interval_us_;
    window.end_us = window.start_us + interval_us_;
    it = open_.emplace(index, std::move(window)).first;
  }
  return it->second;
}

void TimeSeriesRegistry::Count(const std::string& name, double t_us, double delta) {
  OpenWindow(WindowOf(t_us)).counters[name] += delta;
}

void TimeSeriesRegistry::Sample(const std::string& name, double t_us, double value) {
  GaugeWindow& gauge = OpenWindow(WindowOf(t_us)).gauges[name];
  if (gauge.samples == 0) {
    gauge.min = value;
    gauge.max = value;
  } else {
    gauge.min = std::min(gauge.min, value);
    gauge.max = std::max(gauge.max, value);
  }
  gauge.last = value;
  ++gauge.samples;
}

void TimeSeriesRegistry::Observe(const std::string& name, double t_us, double value) {
  OpenWindow(WindowOf(t_us)).dists[name].Add(value);
}

void TimeSeriesRegistry::CloseThrough(int64_t last_index) {
  while (next_to_close_ <= last_index) {
    auto it = open_.find(next_to_close_);
    if (it != open_.end()) {
      closed_.push_back(std::move(it->second));
      open_.erase(it);
    } else {
      TimeWindow empty;
      empty.index = next_to_close_;
      empty.start_us = static_cast<double>(next_to_close_) * interval_us_;
      empty.end_us = empty.start_us + interval_us_;
      closed_.push_back(std::move(empty));
    }
    ++next_to_close_;
  }
}

std::pair<size_t, size_t> TimeSeriesRegistry::AdvanceTo(double t_us) {
  MINUET_CHECK_GE(t_us, last_advance_us_) << "the serving clock may not move backwards";
  last_advance_us_ = t_us;
  const size_t begin = closed_.size();
  // Window k closes when the clock reaches its end, k*W + W <= t.
  const int64_t reached = WindowOf(t_us);
  CloseThrough(reached - 1);
  return {begin, closed_.size()};
}

std::pair<size_t, size_t> TimeSeriesRegistry::Flush() {
  const size_t begin = closed_.size();
  if (!open_.empty()) {
    CloseThrough(open_.rbegin()->first);
  }
  return {begin, closed_.size()};
}

std::map<std::string, double> TimeSeriesRegistry::CounterTotals() const {
  std::map<std::string, double> totals;
  for (const TimeWindow& window : closed_) {
    for (const auto& [name, value] : window.counters) {
      totals[name] += value;
    }
  }
  for (const auto& [index, window] : open_) {
    for (const auto& [name, value] : window.counters) {
      totals[name] += value;
    }
  }
  return totals;
}

std::string WindowJson(const TimeWindow& window) {
  JsonWriter w;
  w.BeginObject();
  w.KV("window", window.index);
  w.KV("start_us", window.start_us);
  w.KV("end_us", window.end_us);
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, value] : window.counters) {
    w.KV(name, value);
  }
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, gauge] : window.gauges) {
    w.Key(name);
    w.BeginObject();
    w.KV("last", gauge.last);
    w.KV("min", gauge.min);
    w.KV("max", gauge.max);
    w.KV("samples", gauge.samples);
    w.EndObject();
  }
  w.EndObject();
  w.Key("dists");
  w.BeginObject();
  for (const auto& [name, dist] : window.dists) {
    w.Key(name);
    w.BeginObject();
    w.KV("count", dist.count());
    w.KV("sum", dist.sum());
    w.KV("min", dist.min());
    w.KV("max", dist.max());
    w.KV("p50", dist.Quantile(0.50));
    w.KV("p95", dist.Quantile(0.95));
    w.KV("p99", dist.Quantile(0.99));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

std::string TimeSeriesRegistry::TimelineJsonl() const {
  JsonWriter header;
  header.BeginObject();
  header.KV("timeline", 1);
  header.KV("interval_us", interval_us_);
  header.KV("windows", static_cast<int64_t>(closed_.size()));
  header.EndObject();
  std::string out = header.TakeString();
  out.push_back('\n');
  for (const TimeWindow& window : closed_) {
    out += WindowJson(window);
    out.push_back('\n');
  }
  return out;
}

bool TimeSeriesRegistry::WriteTimeline(const std::string& path) const {
  return WriteTextFile(path, TimelineJsonl());
}

}  // namespace trace
}  // namespace minuet
