#include "src/prof/timeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "src/util/summary.h"

namespace minuet {
namespace prof {

namespace {

// Ten density levels, blank = zero. The classic terminal sparkline ramp.
constexpr char kRamp[] = " .:-=+*#%@";
constexpr int kRampLevels = 9;  // indices 1..9 for non-zero values

char SparkChar(double value, double max_value) {
  if (!(value > 0.0) || !(max_value > 0.0)) {
    return kRamp[0];
  }
  int level = 1 + static_cast<int>((value / max_value) * (kRampLevels - 1) + 0.5);
  level = std::min(level, kRampLevels);
  return kRamp[level];
}

// Compact value spelling for tables: integers print bare, everything else
// with one decimal.
std::string Compact(double value) {
  char buf[40];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", value);
  }
  return buf;
}

}  // namespace

bool LoadTimeline(const std::vector<JsonValue>& lines, Timeline* out, std::string* error) {
  out->windows.clear();
  if (lines.empty()) {
    if (error != nullptr) {
      *error = "empty timeline (no header line)";
    }
    return false;
  }
  const JsonValue& header = lines[0];
  const JsonValue* magic = header.Find("timeline");
  if (magic == nullptr || !magic->is_number() || magic->AsDouble() != 1.0) {
    if (error != nullptr) {
      *error = "not a timeline artifact (missing {\"timeline\":1} header)";
    }
    return false;
  }
  out->interval_us = NumberOr(&header, "interval_us", 0.0);
  for (size_t i = 1; i < lines.size(); ++i) {
    const JsonValue& line = lines[i];
    if (!line.is_object()) {
      if (error != nullptr) {
        *error = "window " + std::to_string(i) + " is not a JSON object";
      }
      return false;
    }
    TimelineWindow window;
    window.index = static_cast<int64_t>(NumberOr(&line, "window", 0.0));
    window.start_us = NumberOr(&line, "start_us", 0.0);
    window.end_us = NumberOr(&line, "end_us", 0.0);
    if (const JsonValue* counters = line.Find("counters"); counters != nullptr) {
      for (const auto& [name, value] : counters->AsObject()) {
        window.counters[name] = value.AsDouble();
      }
    }
    if (const JsonValue* gauges = line.Find("gauges"); gauges != nullptr) {
      for (const auto& [name, value] : gauges->AsObject()) {
        TimelineGauge gauge;
        gauge.last = NumberOr(&value, "last", 0.0);
        gauge.min = NumberOr(&value, "min", 0.0);
        gauge.max = NumberOr(&value, "max", 0.0);
        gauge.samples = static_cast<int64_t>(NumberOr(&value, "samples", 0.0));
        window.gauges[name] = gauge;
      }
    }
    if (const JsonValue* dists = line.Find("dists"); dists != nullptr) {
      for (const auto& [name, value] : dists->AsObject()) {
        TimelineDist dist;
        dist.count = NumberOr(&value, "count", 0.0);
        dist.sum = NumberOr(&value, "sum", 0.0);
        dist.min = NumberOr(&value, "min", 0.0);
        dist.max = NumberOr(&value, "max", 0.0);
        dist.p50 = NumberOr(&value, "p50", 0.0);
        dist.p95 = NumberOr(&value, "p95", 0.0);
        dist.p99 = NumberOr(&value, "p99", 0.0);
        window.dists[name] = dist;
      }
    }
    out->windows.push_back(std::move(window));
  }
  return true;
}

bool LoadTimelineFile(const std::string& path, Timeline* out, std::string* error) {
  std::vector<JsonValue> lines;
  if (!ReadJsonLinesFile(path, &lines, error)) {
    return false;
  }
  return LoadTimeline(lines, out, error);
}

std::string FormatTimeline(const Timeline& timeline) {
  std::string out;
  Appendf(out, "timeline: %zu windows x %.0f us\n", timeline.windows.size(),
          timeline.interval_us);
  if (timeline.windows.empty()) {
    return out;
  }

  // Fleet-level per-window table: the columns every serving run has.
  static const char* kTableCols[] = {"fleet/offered", "fleet/completed", "fleet/shed",
                                     "fleet/slo_ok", "fleet/busy_us"};
  Appendf(out, "\n%8s %12s", "window", "start_ms");
  for (const char* col : kTableCols) {
    Appendf(out, " %14s", col + 6);  // strip the "fleet/" prefix
  }
  Appendf(out, " %14s\n", "latency_p99");
  for (const TimelineWindow& window : timeline.windows) {
    Appendf(out, "%8lld %12.1f", static_cast<long long>(window.index),
            window.start_us / 1000.0);
    for (const char* col : kTableCols) {
      auto it = window.counters.find(col);
      Appendf(out, " %14s", it != window.counters.end() ? Compact(it->second).c_str() : "-");
    }
    auto dist = window.dists.find("fleet/latency_us");
    Appendf(out, " %14s\n",
            dist != window.dists.end() ? Compact(dist->second.p99).c_str() : "-");
  }

  // Sparkline per series over every window. Series are collected across the
  // whole timeline so a series absent from early windows still lines up.
  std::set<std::string> counter_names, gauge_names, dist_names;
  for (const TimelineWindow& window : timeline.windows) {
    for (const auto& [name, value] : window.counters) {
      counter_names.insert(name);
    }
    for (const auto& [name, gauge] : window.gauges) {
      gauge_names.insert(name);
    }
    for (const auto& [name, dist] : window.dists) {
      dist_names.insert(name);
    }
  }
  auto spark = [&](const std::string& name, auto per_window) {
    double max_value = 0.0;
    for (const TimelineWindow& window : timeline.windows) {
      max_value = std::max(max_value, per_window(window, name));
    }
    std::string line;
    for (const TimelineWindow& window : timeline.windows) {
      line += SparkChar(per_window(window, name), max_value);
    }
    Appendf(out, "  %-26s |%s| max %s\n", name.c_str(), line.c_str(),
            Compact(max_value).c_str());
  };

  Appendf(out, "\ncounters (per-window value)\n");
  for (const std::string& name : counter_names) {
    spark(name, [](const TimelineWindow& w, const std::string& n) {
      auto it = w.counters.find(n);
      return it != w.counters.end() ? it->second : 0.0;
    });
  }
  if (!gauge_names.empty()) {
    Appendf(out, "\ngauges (per-window max)\n");
    for (const std::string& name : gauge_names) {
      spark(name, [](const TimelineWindow& w, const std::string& n) {
        auto it = w.gauges.find(n);
        return it != w.gauges.end() ? it->second.max : 0.0;
      });
    }
  }
  if (!dist_names.empty()) {
    Appendf(out, "\ndistributions (per-window p99)\n");
    for (const std::string& name : dist_names) {
      spark(name, [](const TimelineWindow& w, const std::string& n) {
        auto it = w.dists.find(n);
        return it != w.dists.end() ? it->second.p99 : 0.0;
      });
    }
  }
  return out;
}

TimelineDiff DiffTimelines(const Timeline& a, const Timeline& b) {
  TimelineDiff diff;
  std::string& out = diff.text;
  if (a.interval_us != b.interval_us) {
    ++diff.differences;
    Appendf(out, "interval_us: %.0f vs %.0f\n", a.interval_us, b.interval_us);
  }
  if (a.windows.size() != b.windows.size()) {
    ++diff.differences;
    Appendf(out, "window count: %zu vs %zu\n", a.windows.size(), b.windows.size());
  }
  const size_t n = std::min(a.windows.size(), b.windows.size());
  for (size_t i = 0; i < n; ++i) {
    const TimelineWindow& wa = a.windows[i];
    const TimelineWindow& wb = b.windows[i];
    std::vector<std::string> cells;
    auto compare = [&](const std::string& label, double va, double vb) {
      if (va == vb) {
        return;
      }
      ++diff.differences;
      cells.push_back(label + " " + Compact(va) + " -> " + Compact(vb));
    };
    std::set<std::string> counters;
    for (const auto& [name, value] : wa.counters) {
      counters.insert(name);
    }
    for (const auto& [name, value] : wb.counters) {
      counters.insert(name);
    }
    for (const std::string& name : counters) {
      auto ia = wa.counters.find(name);
      auto ib = wb.counters.find(name);
      compare(name, ia != wa.counters.end() ? ia->second : 0.0,
              ib != wb.counters.end() ? ib->second : 0.0);
    }
    std::set<std::string> gauges;
    for (const auto& [name, gauge] : wa.gauges) {
      gauges.insert(name);
    }
    for (const auto& [name, gauge] : wb.gauges) {
      gauges.insert(name);
    }
    for (const std::string& name : gauges) {
      static const TimelineGauge kEmptyGauge;
      auto ia = wa.gauges.find(name);
      auto ib = wb.gauges.find(name);
      const TimelineGauge& ga = ia != wa.gauges.end() ? ia->second : kEmptyGauge;
      const TimelineGauge& gb = ib != wb.gauges.end() ? ib->second : kEmptyGauge;
      compare(name + ".last", ga.last, gb.last);
      compare(name + ".min", ga.min, gb.min);
      compare(name + ".max", ga.max, gb.max);
      compare(name + ".samples", static_cast<double>(ga.samples),
              static_cast<double>(gb.samples));
    }
    std::set<std::string> dists;
    for (const auto& [name, dist] : wa.dists) {
      dists.insert(name);
    }
    for (const auto& [name, dist] : wb.dists) {
      dists.insert(name);
    }
    for (const std::string& name : dists) {
      static const TimelineDist kEmptyDist;
      auto ia = wa.dists.find(name);
      auto ib = wb.dists.find(name);
      const TimelineDist& da = ia != wa.dists.end() ? ia->second : kEmptyDist;
      const TimelineDist& db = ib != wb.dists.end() ? ib->second : kEmptyDist;
      compare(name + ".count", da.count, db.count);
      compare(name + ".sum", da.sum, db.sum);
      compare(name + ".p50", da.p50, db.p50);
      compare(name + ".p95", da.p95, db.p95);
      compare(name + ".p99", da.p99, db.p99);
    }
    if (!cells.empty()) {
      Appendf(out, "window %lld:\n", static_cast<long long>(wa.index));
      for (const std::string& cell : cells) {
        Appendf(out, "  %s\n", cell.c_str());
      }
    }
  }
  if (diff.differences == 0) {
    out += "timelines identical\n";
  } else {
    Appendf(out, "%lld differing cell(s)\n", static_cast<long long>(diff.differences));
  }
  return diff;
}

}  // namespace prof
}  // namespace minuet
