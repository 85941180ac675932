#include "src/prof/profile.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "src/util/json_writer.h"

namespace minuet {
namespace prof {
namespace {

constexpr std::string_view kKernelPrefix = "device/kernel/";
constexpr std::string_view kMillisSuffix = "/millis";

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

// Wall-clock metrics measure the machine the bench ran on, not the simulator;
// they never belong in the baseline.
bool IsHostTimeKey(std::string_view key) {
  return key.find("host") != std::string_view::npos ||
         key.find("wall") != std::string_view::npos;
}

std::string Format(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

std::string FormatIntensity(double v) {
  if (std::isnan(v)) {
    return "-";
  }
  if (std::isinf(v)) {
    return "inf";
  }
  return Format(v >= 100 ? "%.0f" : "%.2f", v);
}

void AppendRow(std::string* out, const std::vector<std::string>& cells,
               const std::vector<int>& widths, const std::vector<bool>& right) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::string cell = cells[i];
    int pad = widths[i] - static_cast<int>(cell.size());
    if (pad < 0) {
      pad = 0;
    }
    if (i != 0) {
      *out += "  ";
    }
    if (right[i]) {
      out->append(pad, ' ');
      *out += cell;
    } else {
      *out += cell;
      out->append(pad, ' ');
    }
  }
  while (!out->empty() && out->back() == ' ') {
    out->pop_back();
  }
  *out += '\n';
}

void AppendTable(std::string* out, const std::vector<std::vector<std::string>>& rows,
                 const std::vector<bool>& right) {
  if (rows.empty()) {
    return;
  }
  std::vector<int> widths(rows[0].size(), 0);
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], static_cast<int>(row[i].size()));
    }
  }
  for (const auto& row : rows) {
    AppendRow(out, row, widths, right);
  }
}

// --- metrics-snapshot loader ---------------------------------------------

bool LoadFromMetrics(const JsonValue& doc, RunProfile* out, std::string* error) {
  const JsonValue* gauges = doc.Find("gauges");
  const JsonValue* counters = doc.Find("counters");
  const JsonValue* labels = doc.Find("labels");
  if (gauges == nullptr || !gauges->is_object()) {
    *error = "metrics snapshot has no gauges object";
    return false;
  }
  out->source = "metrics";
  out->device = StringOr(labels, "device/config/name");
  out->total_ms = NumberOr(gauges, "device/total/millis", 0.0);
  out->total_occupancy = NumberOr(gauges, "device/total/occupancy", 0.0);
  out->total_dram_bw_util = NumberOr(gauges, "device/total/dram_bw_util", 0.0);
  out->total_roofline = StringOr(labels, "device/total/roofline");

  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [key, value] : gauges->AsObject()) {
    if (!StartsWith(key, kKernelPrefix) || !EndsWith(key, kMillisSuffix)) {
      continue;
    }
    std::string name = key.substr(kKernelPrefix.size(),
                                  key.size() - kKernelPrefix.size() - kMillisSuffix.size());
    std::string prefix = std::string(kKernelPrefix) + name;
    KernelProfile k;
    k.name = std::move(name);
    k.millis = value.DoubleOr(0.0);
    k.cycles = NumberOr(gauges, prefix + "/cycles", 0.0);
    k.launches = IntOr(counters, prefix + "/launches", 0);
    k.blocks = IntOr(counters, prefix + "/blocks", 0);
    k.waves = IntOr(counters, prefix + "/waves", 0);
    k.occupancy = NumberOr(gauges, prefix + "/occupancy", 0.0);
    k.dram_bw_util = NumberOr(gauges, prefix + "/dram_bw_util", 0.0);
    k.arith_intensity = NumberOr(gauges, prefix + "/arith_intensity", kNan);
    k.l2_hit_ratio = NumberOr(gauges, prefix + "/l2_hit_ratio", 0.0);
    k.l2_lookups =
        IntOr(counters, prefix + "/l2_hits", 0) + IntOr(counters, prefix + "/l2_misses", 0);
    k.roofline = StringOr(labels, prefix + "/roofline");
    out->kernels.push_back(std::move(k));
  }

  constexpr std::string_view kLayerPrefix = "engine/layer";
  constexpr std::string_view kSimMsSuffix = "/sim_ms";
  for (const auto& [key, value] : gauges->AsObject()) {
    if (!StartsWith(key, kLayerPrefix) || !EndsWith(key, kSimMsSuffix)) {
      continue;
    }
    std::string index_str = key.substr(
        kLayerPrefix.size(), key.size() - kLayerPrefix.size() - kSimMsSuffix.size());
    if (index_str.empty() ||
        index_str.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    std::string prefix = std::string(kLayerPrefix) + index_str;
    LayerProfile layer;
    layer.conv_index = std::stoll(index_str);
    layer.sim_ms = value.DoubleOr(0.0);
    layer.padding_ratio = NumberOr(gauges, prefix + "/padding_ratio", 0.0);
    layer.launches = NumberOr(gauges, prefix + "/launches", 0.0);
    layer.gemm_kernels = NumberOr(gauges, prefix + "/gemm_kernels", 0.0);
    out->layers.push_back(layer);
  }
  return true;
}

// --- Chrome-trace loader --------------------------------------------------

struct TraceKernelAccum {
  double dur_us = 0.0;
  double host_us = 0.0;
  double cycles = 0.0;
  int64_t launches = 0;
  int64_t blocks = 0;
  int64_t waves = 0;
  double lane_ops = 0.0;
  double dram_bytes = 0.0;
  double l2_hits = 0.0;
  double l2_misses = 0.0;
  double occupancy_weighted = 0.0;     // sum(occupancy * dur)
  double bw_util_weighted = 0.0;       // sum(dram_bw_util * dur)
  std::map<std::string, double> roofline_dur;
};

bool LoadFromTrace(const JsonValue& doc, RunProfile* out, std::string* error) {
  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    *error = "trace has no traceEvents array";
    return false;
  }
  out->source = "trace";

  std::map<std::string, TraceKernelAccum> kernels;
  // Host durations of each conv index's layer spans, in trace order; the
  // n-th host twin pairs with the n-th simulated span of that index.
  std::map<int64_t, std::vector<double>> layer_host_us;
  for (const JsonValue& event : events->AsArray()) {
    if (!event.is_object()) {
      continue;
    }
    const JsonValue* ph = event.Find("ph");
    const JsonValue* tid = event.Find("tid");
    // Complete spans only. Aggregates come from the simulated-time track
    // (tid 1); the host track (tid 0) duplicates every span with wall-clock
    // timing, which feeds the report's host_ms / sim-per-host column.
    if (ph == nullptr || ph->StringOr("") != "X" || tid == nullptr) {
      continue;
    }
    const double tid_num = tid->DoubleOr(-1.0);
    if (tid_num != 1.0 && tid_num != 0.0) {
      continue;
    }
    const JsonValue* cat_v = event.Find("cat");
    const JsonValue* name_v = event.Find("name");
    const JsonValue* args = event.Find("args");
    if (cat_v == nullptr || name_v == nullptr) {
      continue;
    }
    const std::string cat = cat_v->StringOr("");
    const std::string name = name_v->StringOr("");
    const double dur = NumberOr(&event, "dur", 0.0);
    if (tid_num == 0.0) {
      // Host wall-clock track: only durations matter here.
      if (dur > 0.0) {
        if (cat == "kernel") {
          kernels[name].host_us += dur;
          out->has_host_time = true;
        } else if (cat == "layer") {
          layer_host_us[IntOr(args, "conv_index", 0)].push_back(dur);
          out->has_host_time = true;
        } else if (cat == "run") {
          out->total_host_ms += dur / 1e3;
          out->has_host_time = true;
        }
      }
      continue;
    }
    if (cat == "kernel") {
      TraceKernelAccum& acc = kernels[name];
      acc.dur_us += dur;
      acc.launches += 1;
      acc.cycles += NumberOr(args, "cycles", 0.0);
      acc.blocks += IntOr(args, "blocks", 0);
      acc.waves += IntOr(args, "waves", 0);
      acc.lane_ops += NumberOr(args, "lane_ops", 0.0);
      acc.dram_bytes += NumberOr(args, "dram_bytes", 0.0);
      acc.l2_hits += NumberOr(args, "l2_hits", 0.0);
      acc.l2_misses += NumberOr(args, "l2_misses", 0.0);
      acc.occupancy_weighted += NumberOr(args, "occupancy", 0.0) * dur;
      acc.bw_util_weighted += NumberOr(args, "dram_bw_util", 0.0) * dur;
      std::string roofline = StringOr(args, "roofline");
      if (!roofline.empty()) {
        acc.roofline_dur[roofline] += dur;
      }
    } else if (cat == "layer") {
      LayerProfile layer;
      layer.conv_index = IntOr(args, "conv_index", 0);
      layer.sim_ms = dur / 1e3;
      layer.padding_ratio = NumberOr(args, "padding_ratio", 0.0);
      layer.launches = NumberOr(args, "launches", 0.0);
      layer.gemm_kernels = NumberOr(args, "gemm_kernels", 0.0);
      out->layers.push_back(layer);
    } else if (cat == "run") {
      out->total_ms += dur / 1e3;
    }
  }

  std::map<int64_t, size_t> layer_host_used;
  for (LayerProfile& layer : out->layers) {
    const std::vector<double>& host_us = layer_host_us[layer.conv_index];
    size_t& used = layer_host_used[layer.conv_index];
    if (used < host_us.size()) {
      layer.host_ms = host_us[used++] / 1e3;
    }
  }

  double kernel_ms_sum = 0.0;
  double host_ms_sum = 0.0;
  for (auto& [name, acc] : kernels) {
    KernelProfile k;
    k.name = name;
    k.millis = acc.dur_us / 1e3;
    k.host_ms = acc.host_us / 1e3;
    host_ms_sum += k.host_ms;
    k.cycles = acc.cycles;
    k.launches = acc.launches;
    k.blocks = acc.blocks;
    k.waves = acc.waves;
    k.l2_hit_ratio = (acc.l2_hits + acc.l2_misses) > 0
                         ? acc.l2_hits / (acc.l2_hits + acc.l2_misses)
                         : 0.0;
    k.l2_lookups = static_cast<int64_t>(acc.l2_hits + acc.l2_misses);
    k.occupancy = acc.dur_us > 0 ? acc.occupancy_weighted / acc.dur_us : 0.0;
    k.dram_bw_util = acc.dur_us > 0 ? acc.bw_util_weighted / acc.dur_us : 0.0;
    if (acc.dram_bytes > 0) {
      k.arith_intensity = acc.lane_ops / acc.dram_bytes;
    } else {
      k.arith_intensity = acc.lane_ops > 0
                              ? std::numeric_limits<double>::infinity()
                              : 0.0;
    }
    double best = -1.0;
    for (const auto& [cls, cls_dur] : acc.roofline_dur) {
      if (cls_dur > best) {
        best = cls_dur;
        k.roofline = cls;
      }
    }
    kernel_ms_sum += k.millis;
    out->kernels.push_back(std::move(k));
  }
  if (out->total_ms == 0.0) {
    out->total_ms = kernel_ms_sum;
  }
  if (out->total_host_ms == 0.0) {
    out->total_host_ms = host_ms_sum;
  }
  return true;
}

}  // namespace

bool LoadRunProfile(const JsonValue& doc, RunProfile* out, std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  *out = RunProfile();
  bool ok = false;
  if (doc.Find("traceEvents") != nullptr) {
    ok = LoadFromTrace(doc, out, error);
  } else if (doc.Find("gauges") != nullptr || doc.Find("counters") != nullptr) {
    ok = LoadFromMetrics(doc, out, error);
  } else {
    *error = "unrecognised artifact: expected a metrics snapshot (counters/gauges) "
             "or a Chrome trace (traceEvents)";
  }
  if (!ok) {
    return false;
  }
  std::sort(out->kernels.begin(), out->kernels.end(),
            [](const KernelProfile& a, const KernelProfile& b) {
              if (a.millis != b.millis) {
                return a.millis > b.millis;
              }
              return a.name < b.name;
            });
  std::sort(out->layers.begin(), out->layers.end(),
            [](const LayerProfile& a, const LayerProfile& b) {
              return a.conv_index < b.conv_index;
            });
  return true;
}

bool LoadRunProfileFile(const std::string& path, RunProfile* out, std::string* error) {
  JsonValue doc;
  if (!ReadJsonFile(path, &doc, error)) {
    return false;
  }
  if (!LoadRunProfile(doc, out, error)) {
    if (error != nullptr) {
      *error = path + ": " + *error;
    }
    return false;
  }
  return true;
}

std::string FormatReport(const RunProfile& profile, int top_n) {
  std::string out;
  out += "run profile (" + profile.source + ")";
  if (!profile.device.empty()) {
    out += " on " + profile.device;
  }
  out += ": " + Format("%.4f", profile.total_ms) + " simulated ms, " +
         std::to_string(profile.kernels.size()) + " kernels";
  if (profile.has_host_time) {
    out += ", " + Format("%.2f", profile.total_host_ms) + " host ms";
  }
  if (!profile.total_roofline.empty()) {
    out += ", overall " + profile.total_roofline;
  }
  out += "\n\n";

  size_t limit = top_n <= 0 ? profile.kernels.size()
                            : std::min(profile.kernels.size(), static_cast<size_t>(top_n));
  // The host columns appear only when the artifact carried host span
  // durations (a trace's tid-0 track): host_ms is wall-clock spent simulating
  // the kernel, sim/host how much simulated time a host millisecond buys, and
  // host_ns/L2 the host nanoseconds per L2 lookup. A kernel far above the L2
  // model's own cost per lookup is bound by its host loop, not by the L2.
  const bool host = profile.has_host_time;
  std::vector<std::vector<std::string>> rows;
  {
    std::vector<std::string> header = {"#", "kernel", "sim_ms"};
    if (host) {
      header.insert(header.end(), {"host_ms", "sim/host", "l2_lookups", "host_ns/L2"});
    }
    header.insert(header.end(),
                  {"%run", "launches", "occ", "bw_util", "arith_int", "l2_hit", "roofline"});
    rows.push_back(std::move(header));
  }
  for (size_t i = 0; i < limit; ++i) {
    const KernelProfile& k = profile.kernels[i];
    double pct = profile.total_ms > 0 ? 100.0 * k.millis / profile.total_ms : 0.0;
    std::vector<std::string> row = {std::to_string(i + 1), k.name, Format("%.4f", k.millis)};
    if (host) {
      row.push_back(Format("%.2f", k.host_ms));
      row.push_back(k.host_ms > 0 ? Format("%.3f", k.millis / k.host_ms) : "-");
      row.push_back(std::to_string(k.l2_lookups));
      row.push_back(k.l2_lookups > 0
                        ? Format("%.1f", k.host_ms * 1e6 / static_cast<double>(k.l2_lookups))
                        : "-");
    }
    row.insert(row.end(),
               {Format("%.1f", pct), std::to_string(k.launches), Format("%.2f", k.occupancy),
                Format("%.2f", k.dram_bw_util), FormatIntensity(k.arith_intensity),
                Format("%.2f", k.l2_hit_ratio), k.roofline});
    rows.push_back(std::move(row));
  }
  std::vector<bool> right = {true, false, true};
  if (host) {
    right.insert(right.end(), {true, true, true, true});
  }
  right.insert(right.end(), {true, true, true, true, true, true, false});
  AppendTable(&out, rows, right);
  if (limit < profile.kernels.size()) {
    out += "... " + std::to_string(profile.kernels.size() - limit) + " more kernels\n";
  }

  if (!profile.layers.empty()) {
    out += "\nper-layer hot path:\n";
    std::vector<const LayerProfile*> by_cost;
    for (const LayerProfile& layer : profile.layers) {
      by_cost.push_back(&layer);
    }
    std::sort(by_cost.begin(), by_cost.end(), [](const LayerProfile* a, const LayerProfile* b) {
      return a->sim_ms > b->sim_ms;
    });
    std::vector<std::vector<std::string>> layer_rows;
    {
      std::vector<std::string> header = {"layer", "sim_ms"};
      if (host) {
        header.insert(header.end(), {"host_ms", "sim/host"});
      }
      header.insert(header.end(), {"%run", "padding", "launches", "gemms"});
      layer_rows.push_back(std::move(header));
    }
    for (const LayerProfile* layer : by_cost) {
      double pct = profile.total_ms > 0 ? 100.0 * layer->sim_ms / profile.total_ms : 0.0;
      std::vector<std::string> row = {"conv" + std::to_string(layer->conv_index),
                                      Format("%.4f", layer->sim_ms)};
      if (host) {
        row.push_back(Format("%.2f", layer->host_ms));
        row.push_back(layer->host_ms > 0 ? Format("%.3f", layer->sim_ms / layer->host_ms) : "-");
      }
      row.insert(row.end(), {Format("%.1f", pct), Format("%.3f", layer->padding_ratio),
                             Format("%.0f", layer->launches),
                             Format("%.0f", layer->gemm_kernels)});
      layer_rows.push_back(std::move(row));
    }
    std::vector<bool> layer_right(layer_rows[0].size(), true);
    layer_right[0] = false;
    AppendTable(&out, layer_rows, layer_right);
  }
  return out;
}

DiffResult DiffProfiles(const RunProfile& before, const RunProfile& after) {
  DiffResult result;
  result.before_total_ms = before.total_ms;
  result.after_total_ms = after.total_ms;
  std::map<std::string, KernelDelta> by_name;
  for (const KernelProfile& k : before.kernels) {
    KernelDelta& d = by_name[k.name];
    d.name = k.name;
    d.in_before = true;
    d.before_ms = k.millis;
    d.before_roofline = k.roofline;
  }
  for (const KernelProfile& k : after.kernels) {
    KernelDelta& d = by_name[k.name];
    d.name = k.name;
    d.in_after = true;
    d.after_ms = k.millis;
    d.after_roofline = k.roofline;
  }
  for (auto& [name, d] : by_name) {
    d.delta_ms = d.after_ms - d.before_ms;
    result.deltas.push_back(d);
  }
  std::sort(result.deltas.begin(), result.deltas.end(),
            [](const KernelDelta& a, const KernelDelta& b) {
              if (std::fabs(a.delta_ms) != std::fabs(b.delta_ms)) {
                return std::fabs(a.delta_ms) > std::fabs(b.delta_ms);
              }
              return a.name < b.name;
            });
  return result;
}

std::vector<const KernelDelta*> Regressions(const DiffResult& diff, double threshold,
                                            double min_ms) {
  std::vector<const KernelDelta*> out;
  for (const KernelDelta& d : diff.deltas) {
    if (d.delta_ms < min_ms) {
      continue;
    }
    if (!d.in_before) {
      out.push_back(&d);  // new kernel costing at least min_ms
      continue;
    }
    if (d.delta_ms > threshold * d.before_ms) {
      out.push_back(&d);
    }
  }
  return out;
}

std::string FormatDiff(const DiffResult& diff, double threshold, double min_ms) {
  std::string out;
  double total_delta = diff.after_total_ms - diff.before_total_ms;
  out += "total simulated ms: " + Format("%.4f", diff.before_total_ms) + " -> " +
         Format("%.4f", diff.after_total_ms) + " (" + Format("%+.4f", total_delta);
  if (diff.before_total_ms > 0) {
    out += ", " + Format("%+.2f", 100.0 * total_delta / diff.before_total_ms) + "%";
  }
  out += ")\n\n";

  std::vector<const KernelDelta*> regressed = Regressions(diff, threshold, min_ms);
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"kernel", "before_ms", "after_ms", "delta_ms", "delta%", "note"});
  for (const KernelDelta& d : diff.deltas) {
    std::string note;
    if (!d.in_before) {
      note = "added";
    } else if (!d.in_after) {
      note = "removed";
    } else if (d.before_roofline != d.after_roofline && !d.before_roofline.empty()) {
      note = d.before_roofline + "->" + d.after_roofline;
    }
    for (const KernelDelta* r : regressed) {
      if (r->name == d.name) {
        note = note.empty() ? "REGRESSED" : "REGRESSED " + note;
        break;
      }
    }
    std::string pct = d.before_ms > 0
                          ? Format("%+.2f", 100.0 * d.delta_ms / d.before_ms)
                          : std::string("-");
    rows.push_back({d.name, Format("%.4f", d.before_ms), Format("%.4f", d.after_ms),
                    Format("%+.4f", d.delta_ms), pct, note});
  }
  AppendTable(&out, rows, {false, true, true, true, true, false});

  out += "\n";
  if (regressed.empty()) {
    out += "no kernel regressed beyond " + Format("%.1f", threshold * 100.0) +
           "% (+" + Format("%.4f", min_ms) + " ms floor)\n";
  } else {
    out += std::to_string(regressed.size()) + " kernel(s) regressed beyond " +
           Format("%.1f", threshold * 100.0) + "%:\n";
    for (const KernelDelta* d : regressed) {
      out += "  REGRESSION: " + d->name + " " + Format("%.4f", d->before_ms) +
             " -> " + Format("%.4f", d->after_ms) + " ms (" +
             Format("%+.4f", d->delta_ms) + " ms)\n";
    }
  }
  return out;
}

// --- serve report ---------------------------------------------------------

bool IsServeReport(const JsonValue& doc) { return doc.Find("serve_report") != nullptr; }

bool LoadServeProfile(const JsonValue& doc, ServeProfile* out, std::string* error) {
  *out = ServeProfile();
  const JsonValue* summary = doc.Find("summary");
  if (summary == nullptr || !summary->is_object()) {
    *error = "serve report has no summary object";
    return false;
  }
  const JsonValue* context = doc.Find("context");
  const JsonValue* arrival = doc.Find("arrival");
  const JsonValue* config = doc.Find("config");

  out->device = StringOr(context, "device");
  out->network = StringOr(context, "network");
  out->engine = StringOr(context, "engine");
  out->process = StringOr(arrival, "process");
  out->rate_rps = NumberOr(arrival, "rate_rps", 0.0);
  out->policy = StringOr(config, "policy");
  out->queue_capacity = IntOr(config, "queue_capacity", 0);
  out->max_batch_size = IntOr(config, "max_batch_size", 0);
  out->max_queue_delay_us = NumberOr(config, "max_queue_delay_us", 0.0);
  out->slo_us = NumberOr(config, "slo_us", 0.0);

  out->offered = IntOr(summary, "offered", 0);
  out->admitted = IntOr(summary, "admitted", 0);
  out->shed = IntOr(summary, "shed", 0);
  out->completed = IntOr(summary, "completed", 0);
  out->num_batches = IntOr(summary, "num_batches", 0);
  out->warm_requests = IntOr(summary, "warm_requests", 0);
  out->duration_us = NumberOr(summary, "duration_us", 0.0);
  out->utilization = NumberOr(summary, "utilization", 0.0);
  out->throughput_rps = NumberOr(summary, "throughput_rps", 0.0);
  out->goodput_rps = NumberOr(summary, "goodput_rps", 0.0);
  out->shed_rate = NumberOr(summary, "shed_rate", 0.0);
  out->slo_attainment = NumberOr(summary, "slo_attainment", 0.0);
  out->mean_batch_size = NumberOr(summary, "mean_batch_size", 0.0);
  out->queue_p50_us = NumberOr(summary, "queue_p50_us", 0.0);
  out->queue_p95_us = NumberOr(summary, "queue_p95_us", 0.0);
  out->queue_p99_us = NumberOr(summary, "queue_p99_us", 0.0);
  out->service_p50_us = NumberOr(summary, "service_p50_us", 0.0);
  out->service_p95_us = NumberOr(summary, "service_p95_us", 0.0);
  out->service_p99_us = NumberOr(summary, "service_p99_us", 0.0);
  out->latency_p50_us = NumberOr(summary, "latency_p50_us", 0.0);
  out->latency_p95_us = NumberOr(summary, "latency_p95_us", 0.0);
  out->latency_p99_us = NumberOr(summary, "latency_p99_us", 0.0);

  const JsonValue* metrics = doc.Find("device_metrics");
  if (metrics != nullptr && metrics->is_object()) {
    std::string metrics_error;
    out->has_device_profile =
        LoadRunProfile(*metrics, &out->device_profile, &metrics_error);
  }
  return true;
}

std::string FormatServeReport(const ServeProfile& profile, int top_n) {
  std::string out = "serve report";
  if (!profile.engine.empty()) {
    out += ": " + profile.engine;
  }
  if (!profile.device.empty()) {
    out += " on " + profile.device;
  }
  if (!profile.network.empty()) {
    out += " (" + profile.network + ")";
  }
  out += "\narrival " + (profile.process.empty() ? "?" : profile.process) + " @ " +
         Format("%.0f", profile.rate_rps) + " rps | policy " +
         (profile.policy.empty() ? "?" : profile.policy) + ", queue " +
         std::to_string(profile.queue_capacity) + ", max batch " +
         std::to_string(profile.max_batch_size) + ", max delay " +
         Format("%.0f", profile.max_queue_delay_us) + " us, SLO " +
         Format("%.0f", profile.slo_us) + " us\n\n";

  std::vector<std::vector<std::string>> lat;
  lat.push_back({"latency", "p50(us)", "p95(us)", "p99(us)"});
  lat.push_back({"queue", Format("%.1f", profile.queue_p50_us),
                 Format("%.1f", profile.queue_p95_us), Format("%.1f", profile.queue_p99_us)});
  lat.push_back({"service", Format("%.1f", profile.service_p50_us),
                 Format("%.1f", profile.service_p95_us),
                 Format("%.1f", profile.service_p99_us)});
  lat.push_back({"end-to-end", Format("%.1f", profile.latency_p50_us),
                 Format("%.1f", profile.latency_p95_us),
                 Format("%.1f", profile.latency_p99_us)});
  AppendTable(&out, lat, {false, true, true, true});

  out += "\nrequests: offered " + std::to_string(profile.offered) + " | admitted " +
         std::to_string(profile.admitted) + " | shed " + std::to_string(profile.shed) +
         " (" + Format("%.1f", 100.0 * profile.shed_rate) + "%) | completed " +
         std::to_string(profile.completed) + " | warm " +
         std::to_string(profile.warm_requests) + "\n";
  out += "rates: throughput " + Format("%.1f", profile.throughput_rps) + " rps | goodput " +
         Format("%.1f", profile.goodput_rps) + " rps | SLO attainment " +
         Format("%.1f", 100.0 * profile.slo_attainment) + "%\n";
  out += "server: " + Format("%.1f", profile.duration_us / 1e3) + " ms serving clock | " +
         Format("%.1f", 100.0 * profile.utilization) + "% busy | " +
         std::to_string(profile.num_batches) + " batches, mean size " +
         Format("%.2f", profile.mean_batch_size) + "\n";

  if (profile.has_device_profile) {
    out += "\n";
    out += FormatReport(profile.device_profile, top_n);
  }
  return out;
}

// --- bench baseline -------------------------------------------------------

namespace {

void WriteJsonValue(JsonWriter* w, const JsonValue& v) {
  if (v.is_null()) {
    w->Value(std::numeric_limits<double>::quiet_NaN());  // writer spells NaN as null
  } else if (v.is_bool()) {
    w->Value(v.AsBool());
  } else if (v.is_number()) {
    w->Value(v.AsDouble());
  } else if (v.is_string()) {
    w->Value(v.AsString());
  } else if (v.is_array()) {
    w->BeginArray();
    for (const JsonValue& item : v.AsArray()) {
      WriteJsonValue(w, item);
    }
    w->EndArray();
  } else {
    w->BeginObject();
    for (const auto& [key, item] : v.AsObject()) {
      w->Key(key);
      WriteJsonValue(w, item);
    }
    w->EndObject();
  }
}

// `obj` (an object) with its host keys dropped.
void WriteWithoutHostKeys(JsonWriter* w, const JsonValue& obj) {
  w->BeginObject();
  for (const auto& [key, value] : obj.AsObject()) {
    if (!IsHostTimeKey(key)) {
      w->Key(key);
      WriteJsonValue(w, value);
    }
  }
  w->EndObject();
}

std::string ToJson(const JsonValue& v) {
  JsonWriter w;
  WriteJsonValue(&w, v);
  return w.TakeString();
}

// True when `rows` is an array of objects, as a report's or baseline's rows are.
bool IsRowArray(const JsonValue* rows) {
  return rows != nullptr && rows->is_array() &&
         std::all_of(rows->AsArray().begin(), rows->AsArray().end(),
                     [](const JsonValue& row) { return row.is_object(); });
}

// Indexes bench reports (`<bench> --json` output) by bench name; false +
// *error on a malformed report or a second report for the same bench.
bool IndexReports(const std::vector<JsonValue>& reports,
                  std::map<std::string, const JsonValue*>* by_bench, std::string* error) {
  for (const JsonValue& report : reports) {
    const JsonValue* name = report.Find("bench");
    const JsonValue* rows = report.Find("rows");
    const JsonValue* meta = report.Find("meta");
    if (name == nullptr || !name->is_string() || !IsRowArray(rows) ||
        (meta != nullptr && !meta->is_object())) {
      *error = "report is not a bench report (needs a \"bench\" name and \"rows\" objects)";
      return false;
    }
    if (!by_bench->emplace(name->AsString(), &report).second) {
      *error = "two reports for bench \"" + name->AsString() + "\"";
      return false;
    }
  }
  return true;
}

// One violation per key of `expected` that `actual` lacks or holds a
// different value for.
void CompareExact(const std::string& bench, int row, const std::string& key_prefix,
                  const JsonValue& expected, const JsonValue* actual,
                  std::vector<BaselineViolation>* violations) {
  for (const auto& [key, value] : expected.AsObject()) {
    const JsonValue* got = actual != nullptr ? actual->Find(key) : nullptr;
    if (got == nullptr || *got != value) {
      violations->push_back({bench, row, key_prefix + key,
                             "baseline " + ToJson(value) + ", report " +
                                 (got != nullptr ? ToJson(*got) : "<missing>")});
    }
  }
}

}  // namespace

std::string MakeBaselineJson(const std::vector<JsonValue>& reports, std::string* error) {
  std::map<std::string, const JsonValue*> benches;
  if (!IndexReports(reports, &benches, error)) {
    return "";
  }
  if (benches.empty()) {
    *error = "no bench reports given";
    return "";
  }

  JsonWriter w;
  w.BeginObject();
  w.KV("baseline_version", int64_t{2});
  w.Key("benches");
  w.BeginObject();
  for (const auto& [name, report] : benches) {
    w.Key(name);
    w.BeginObject();
    const JsonValue* meta = report->Find("meta");
    w.Key("meta");
    WriteWithoutHostKeys(&w, meta != nullptr ? *meta : JsonValue(JsonValue::Object{}));
    w.Key("rows");
    w.BeginArray();
    for (const JsonValue& row : report->Find("rows")->AsArray()) {
      WriteWithoutHostKeys(&w, row);
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

bool CheckBaseline(const JsonValue& baseline, const std::vector<JsonValue>& reports,
                   std::vector<BaselineViolation>* violations, std::string* error) {
  const JsonValue* benches = baseline.Find("benches");
  if (NumberOr(&baseline, "baseline_version", 0.0) != 2.0 || benches == nullptr ||
      !benches->is_object()) {
    *error = "baseline is not a version 2 baseline (re-record it with bench/record_baseline.sh)";
    return false;
  }
  std::map<std::string, const JsonValue*> by_bench;
  if (!IndexReports(reports, &by_bench, error)) {
    return false;
  }
  for (const auto& [bench, report] : by_bench) {
    if (benches->Find(bench) == nullptr) {
      *error = "baseline has no entry for bench \"" + bench + "\"";
      return false;
    }
  }

  for (const auto& [bench, entry] : benches->AsObject()) {
    const JsonValue* base_meta = entry.Find("meta");
    const JsonValue* base_rows = entry.Find("rows");
    if (base_meta == nullptr || !base_meta->is_object() || !IsRowArray(base_rows)) {
      *error = "baseline entry for \"" + bench + "\" is malformed";
      return false;
    }
    auto it = by_bench.find(bench);
    if (it == by_bench.end()) {
      violations->push_back({bench, -1, "report", "no report for this bench"});
      continue;
    }
    const JsonValue& report = *it->second;
    // Meta drift (different point counts, different config) is reported as
    // a violation rather than an error so the gate prints all problems in
    // one pass.
    CompareExact(bench, -1, "meta/", *base_meta, report.Find("meta"), violations);
    const JsonValue::Array& rows = report.Find("rows")->AsArray();
    if (base_rows->size() != rows.size()) {
      violations->push_back({bench, -1, "rows",
                             "row count mismatch: baseline " +
                                 std::to_string(base_rows->size()) + ", report " +
                                 std::to_string(rows.size())});
      continue;
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      CompareExact(bench, static_cast<int>(i), "", base_rows->at(i), &rows[i], violations);
    }
  }
  return true;
}

}  // namespace prof
}  // namespace minuet
