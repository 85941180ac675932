// minuet::trace metrics registry — named counters, gauges and histograms
// with a JSON snapshot path.
//
// Naming convention: slash-separated paths mirroring the subsystem that owns
// the number, e.g.
//
//   device/kernel/map/query/ss_search/launches      (counter)
//   plan_cache/hits                                  (counter)
//   workspace_pool/allocations                       (counter)
//   engine/layer3/padding_ratio                      (gauge)
//   serve/warm_host_ms                               (histogram)
//
// Components don't hold registry references; they keep their own cheap Stats
// structs on the hot path (as before this subsystem existed) and expose
// Publish*Metrics() helpers that copy those stats into a registry at report
// time. That keeps the registry entirely off the simulation path — recording
// costs nothing unless someone asks for a snapshot.
//
// Snapshot JSON schema (see DESIGN.md "Observability"):
//   {"counters": {name: int, ...},
//    "gauges":   {name: double, ...},
//    "labels":   {name: string, ...},
//    "histograms": {name: {"lower":L,"upper":U,"bucket_width":W,
//                          "counts":[...],"underflow":n,"overflow":n,
//                          "count":n,"sum":s,"min":m,"max":M}, ...}}
//
// Deterministic: maps are ordered, so two snapshots of the same run diff
// cleanly. Single-threaded, like everything else in the simulator.
#ifndef SRC_TRACE_METRICS_H_
#define SRC_TRACE_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/util/summary.h"

namespace minuet {
namespace trace {

class Counter {
 public:
  void Add(int64_t delta) { value_ += delta; }
  void Set(int64_t value) { value_ = value; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// String-valued metric for categorical facts a dashboard or diff tool needs
// alongside the numbers: a kernel's roofline class, the DeviceConfig name.
class Label {
 public:
  void Set(std::string value) { value_ = std::move(value); }
  const std::string& value() const { return value_; }

 private:
  std::string value_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Fetch-or-create. References stay valid for the registry's lifetime.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Label& GetLabel(const std::string& name);
  // A histogram name must keep its original bucket layout; the layout
  // arguments are ignored (checked) on re-fetch.
  FixedHistogram& GetHistogram(const std::string& name, double lower, double upper,
                               int num_buckets);

  bool HasCounter(const std::string& name) const { return counters_.count(name) != 0; }
  bool HasGauge(const std::string& name) const { return gauges_.count(name) != 0; }
  bool HasLabel(const std::string& name) const { return labels_.count(name) != 0; }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Label>& labels() const { return labels_; }
  const std::map<std::string, std::unique_ptr<FixedHistogram>>& histograms() const {
    return histograms_;
  }

  // The full registry as JSON (schema in the file comment).
  std::string SnapshotJson() const;
  // Writes SnapshotJson to `path`; false if the file cannot be written.
  bool WriteSnapshot(const std::string& path) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Label> labels_;
  // unique_ptr: FixedHistogram has no default constructor and must not move
  // once handed out.
  std::map<std::string, std::unique_ptr<FixedHistogram>> histograms_;
};

}  // namespace trace
}  // namespace minuet

#endif  // SRC_TRACE_METRICS_H_
