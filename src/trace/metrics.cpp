#include "src/trace/metrics.h"

#include <cstdio>

#include "src/util/check.h"
#include "src/util/json_writer.h"

namespace minuet {
namespace trace {

Counter& MetricsRegistry::GetCounter(const std::string& name) { return counters_[name]; }

Gauge& MetricsRegistry::GetGauge(const std::string& name) { return gauges_[name]; }

Label& MetricsRegistry::GetLabel(const std::string& name) { return labels_[name]; }

FixedHistogram& MetricsRegistry::GetHistogram(const std::string& name, double lower,
                                              double upper, int num_buckets) {
  auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    MINUET_CHECK_EQ(it->second->lower(), lower) << "histogram relayout: " << name;
    MINUET_CHECK_EQ(it->second->upper(), upper) << "histogram relayout: " << name;
    MINUET_CHECK_EQ(it->second->num_buckets(), num_buckets) << "histogram relayout: " << name;
    return *it->second;
  }
  auto hist = std::make_unique<FixedHistogram>(lower, upper, num_buckets);
  FixedHistogram& ref = *hist;
  histograms_.emplace(name, std::move(hist));
  return ref;
}

std::string MetricsRegistry::SnapshotJson() const {
  JsonWriter w;
  w.BeginObject();

  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, counter] : counters_) {
    w.KV(name, counter.value());
  }
  w.EndObject();

  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    w.KV(name, gauge.value());
  }
  w.EndObject();

  w.Key("labels");
  w.BeginObject();
  for (const auto& [name, label] : labels_) {
    w.KV(name, label.value());
  }
  w.EndObject();

  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, hist] : histograms_) {
    w.Key(name);
    w.BeginObject();
    w.KV("lower", hist->lower());
    w.KV("upper", hist->upper());
    w.KV("bucket_width", (hist->upper() - hist->lower()) / hist->num_buckets());
    w.Key("counts");
    w.BeginArray();
    for (int i = 0; i < hist->num_buckets(); ++i) {
      w.Value(hist->BucketCount(i));
    }
    w.EndArray();
    w.KV("underflow", hist->underflow());
    w.KV("overflow", hist->overflow());
    w.KV("count", hist->total_count());
    w.KV("sum", hist->sum());
    if (hist->total_count() > 0) {
      w.KV("min", hist->min());
      w.KV("max", hist->max());
    }
    w.EndObject();
  }
  w.EndObject();

  w.EndObject();
  return w.TakeString();
}

bool MetricsRegistry::WriteSnapshot(const std::string& path) const {
  return WriteTextFile(path, SnapshotJson());
}

}  // namespace trace
}  // namespace minuet
