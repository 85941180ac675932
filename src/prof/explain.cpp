#include "src/prof/explain.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "src/util/summary.h"

namespace minuet {
namespace prof {

namespace {

double NsToUs(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

// The nine blame phases in causal order (admission is always 0 on the event
// clock and stays out of the tables; it still participates in the dump's
// segment-sum invariant).
struct PhaseDef {
  const char* name;
  int64_t DumpRequest::* field;
};
constexpr PhaseDef kPhases[] = {
    {"server_wait", &DumpRequest::server_wait_ns},
    {"batch_delay", &DumpRequest::batch_delay_ns},
    {"map", &DumpRequest::map_ns},
    {"map_delta", &DumpRequest::map_delta_ns},
    {"gather", &DumpRequest::gather_ns},
    {"gemm", &DumpRequest::gemm_ns},
    {"scatter", &DumpRequest::scatter_ns},
    {"exec_other", &DumpRequest::exec_other_ns},
    {"stream_wait", &DumpRequest::stream_wait_ns},
};
constexpr size_t kNumPhases = sizeof(kPhases) / sizeof(kPhases[0]);

// Blame a group of requests (the whole tail, one tier's slice, one
// replica's slice): per-phase totals and the winning phase.
void GroupPhaseTotals(const std::vector<const DumpRequest*>& group,
                      int64_t totals[kNumPhases], int64_t* e2e_total) {
  *e2e_total = 0;
  for (size_t p = 0; p < kNumPhases; ++p) {
    totals[p] = 0;
  }
  for (const DumpRequest* r : group) {
    *e2e_total += r->e2e_ns;
    for (size_t p = 0; p < kNumPhases; ++p) {
      totals[p] += r->*kPhases[p].field;
    }
  }
}

GroupBlame BuildGroup(int64_t key, const std::string& name,
                      const std::vector<const DumpRequest*>& members,
                      const std::vector<const DumpRequest*>& tail_members) {
  GroupBlame group;
  group.key = key;
  group.name = name;
  group.offered = static_cast<int64_t>(members.size());
  std::vector<double> e2e_us;
  double exec_us_total = 0.0;
  for (const DumpRequest* r : members) {
    if (r->shed) {
      ++group.shed;
      continue;
    }
    ++group.completed;
    e2e_us.push_back(NsToUs(r->e2e_ns));
    exec_us_total += NsToUs(r->exec_ns);
  }
  group.tail = static_cast<int64_t>(tail_members.size());
  group.e2e_p50_us = Percentile(e2e_us, 50.0);
  group.e2e_p99_us = Percentile(e2e_us, 99.0);
  group.mean_exec_us = SafeDiv(exec_us_total, static_cast<double>(group.completed));
  if (!tail_members.empty()) {
    int64_t totals[kNumPhases];
    int64_t e2e_total = 0;
    GroupPhaseTotals(tail_members, totals, &e2e_total);
    size_t best = 0;
    for (size_t p = 1; p < kNumPhases; ++p) {
      if (totals[p] > totals[best]) {
        best = p;  // strict >: ties keep the causally-earlier phase
      }
    }
    group.top_phase = kPhases[best].name;
    group.top_share = SafeDiv(static_cast<double>(totals[best]),
                              static_cast<double>(e2e_total));
  }
  return group;
}

}  // namespace

bool LoadRequestDump(const std::vector<JsonValue>& lines, RequestDump* out,
                     std::string* error) {
  out->requests.clear();
  if (lines.empty()) {
    if (error != nullptr) {
      *error = "empty request dump (no header line)";
    }
    return false;
  }
  const JsonValue& header = lines[0];
  const JsonValue* magic = header.Find("request_dump");
  if (magic == nullptr || !magic->is_number() || magic->AsDouble() != 1.0) {
    if (error != nullptr) {
      *error = "not a request dump (missing {\"request_dump\":1} header)";
    }
    return false;
  }
  out->slo_us = NumberOr(&header, "slo_us", 0.0);
  for (size_t i = 1; i < lines.size(); ++i) {
    const JsonValue& line = lines[i];
    if (!line.is_object()) {
      if (error != nullptr) {
        *error = "request line " + std::to_string(i + 1) + " is not a JSON object";
      }
      return false;
    }
    DumpRequest r;
    r.id = IntOr(&line, "id", 0);
    r.arrival_us = NumberOr(&line, "arrival_us", 0.0);
    r.priority = IntOr(&line, "priority", 0);
    r.batch_class = IntOr(&line, "batch_class", 0);
    r.points = IntOr(&line, "points", 0);
    r.device = IntOr(&line, "device", 0);
    r.shed = BoolOr(&line, "shed", false);
    r.warm = BoolOr(&line, "warm", false);
    r.batch = IntOr(&line, "batch", -1);
    r.dispatch_us = NumberOr(&line, "dispatch_us", 0.0);
    r.completion_us = NumberOr(&line, "completion_us", 0.0);
    r.e2e_ns = IntOr(&line, "e2e_ns", 0);
    r.queue_ns = IntOr(&line, "queue_ns", 0);
    r.service_ns = IntOr(&line, "service_ns", 0);
    r.exec_ns = IntOr(&line, "exec_ns", 0);
    r.admission_ns = IntOr(&line, "admission_ns", 0);
    r.server_wait_ns = IntOr(&line, "server_wait_ns", 0);
    r.batch_delay_ns = IntOr(&line, "batch_delay_ns", 0);
    r.map_ns = IntOr(&line, "map_ns", 0);
    r.map_delta_ns = IntOr(&line, "map_delta_ns", 0);
    r.gather_ns = IntOr(&line, "gather_ns", 0);
    r.gemm_ns = IntOr(&line, "gemm_ns", 0);
    r.scatter_ns = IntOr(&line, "scatter_ns", 0);
    r.exec_other_ns = IntOr(&line, "exec_other_ns", 0);
    r.stream_wait_ns = IntOr(&line, "stream_wait_ns", 0);
    out->requests.push_back(r);
  }
  return true;
}

bool LoadRequestDumpFile(const std::string& path, RequestDump* out, std::string* error) {
  std::vector<JsonValue> lines;
  if (!ReadJsonLinesFile(path, &lines, error)) {
    return false;
  }
  return LoadRequestDump(lines, out, error);
}

Explain BuildExplain(const RequestDump& dump, const ExplainOptions& options) {
  Explain explain;
  explain.slo_us = options.slo_us >= 0.0 ? options.slo_us : dump.slo_us;
  explain.offered = static_cast<int64_t>(dump.requests.size());

  std::vector<const DumpRequest*> completed;
  for (const DumpRequest& r : dump.requests) {
    if (r.shed) {
      ++explain.shed;
    } else {
      completed.push_back(&r);
    }
  }
  explain.completed = static_cast<int64_t>(completed.size());

  std::vector<double> e2e_us;
  e2e_us.reserve(completed.size());
  for (const DumpRequest* r : completed) {
    e2e_us.push_back(NsToUs(r->e2e_ns));
  }
  explain.e2e_p50_us = Percentile(e2e_us, 50.0);
  explain.e2e_p95_us = Percentile(e2e_us, 95.0);
  explain.e2e_p99_us = Percentile(e2e_us, 99.0);

  // Tail selection: worst-k by e2e (ties to the lower request id — the dump
  // is in id order and the sort is stable), or above-SLO.
  std::vector<const DumpRequest*> tail;
  if (options.worst_k > 0) {
    explain.tail_rule = "worst-k";
    tail = completed;
    std::stable_sort(tail.begin(), tail.end(),
                     [](const DumpRequest* a, const DumpRequest* b) {
                       return a->e2e_ns > b->e2e_ns;
                     });
    if (static_cast<int64_t>(tail.size()) > options.worst_k) {
      tail.resize(static_cast<size_t>(options.worst_k));
    }
  } else {
    explain.tail_rule = "above-slo";
    const int64_t slo_ns = static_cast<int64_t>(std::llround(explain.slo_us * 1000.0));
    for (const DumpRequest* r : completed) {
      if (r->e2e_ns > slo_ns) {
        tail.push_back(r);
      }
    }
  }
  explain.tail_count = static_cast<int64_t>(tail.size());

  // Phase blame over the tail (and shares over all completed for contrast).
  int64_t tail_totals[kNumPhases];
  int64_t tail_e2e = 0;
  GroupPhaseTotals(tail, tail_totals, &tail_e2e);
  int64_t all_totals[kNumPhases];
  int64_t all_e2e = 0;
  GroupPhaseTotals(completed, all_totals, &all_e2e);
  for (size_t p = 0; p < kNumPhases; ++p) {
    PhaseBlame blame;
    blame.phase = kPhases[p].name;
    blame.tail_total_ns = tail_totals[p];
    blame.tail_share = SafeDiv(static_cast<double>(tail_totals[p]),
                               static_cast<double>(tail_e2e));
    blame.all_share = SafeDiv(static_cast<double>(all_totals[p]),
                              static_cast<double>(all_e2e));
    std::vector<double> phase_us;
    phase_us.reserve(tail.size());
    for (const DumpRequest* r : tail) {
      phase_us.push_back(NsToUs(r->*kPhases[p].field));
    }
    blame.p50_us = Percentile(phase_us, 50.0);
    blame.p95_us = Percentile(phase_us, 95.0);
    blame.p99_us = Percentile(phase_us, 99.0);
    explain.phases.push_back(std::move(blame));
  }

  // Per-tier and per-replica slices (std::map iterates in ascending key
  // order, which keeps the tables deterministic).
  std::map<int64_t, std::vector<const DumpRequest*>> by_tier;
  std::map<int64_t, std::vector<const DumpRequest*>> by_device;
  for (const DumpRequest& r : dump.requests) {
    by_tier[r.priority].push_back(&r);
    by_device[r.device].push_back(&r);
  }
  std::map<int64_t, std::vector<const DumpRequest*>> tail_by_tier;
  std::map<int64_t, std::vector<const DumpRequest*>> tail_by_device;
  for (const DumpRequest* r : tail) {
    tail_by_tier[r->priority].push_back(r);
    tail_by_device[r->device].push_back(r);
  }
  for (const auto& [priority, members] : by_tier) {
    explain.tiers.push_back(BuildGroup(priority,
                                       "tier" + std::to_string(priority), members,
                                       tail_by_tier[priority]));
  }
  for (const auto& [device, members] : by_device) {
    explain.devices.push_back(BuildGroup(device, "dev" + std::to_string(device),
                                         members, tail_by_device[device]));
  }

  // Plan-miss penalty: mean cold execution minus mean warm execution over
  // completed requests. 0 when either population is empty.
  double warm_us = 0.0;
  double cold_us = 0.0;
  for (const DumpRequest* r : completed) {
    if (r->warm) {
      ++explain.warm_count;
      warm_us += NsToUs(r->exec_ns);
    } else {
      ++explain.cold_count;
      cold_us += NsToUs(r->exec_ns);
    }
  }
  explain.warm_exec_mean_us = SafeDiv(warm_us, static_cast<double>(explain.warm_count));
  explain.cold_exec_mean_us = SafeDiv(cold_us, static_cast<double>(explain.cold_count));
  explain.plan_miss_penalty_us =
      explain.warm_count > 0 && explain.cold_count > 0
          ? explain.cold_exec_mean_us - explain.warm_exec_mean_us
          : 0.0;
  return explain;
}

std::string FormatExplain(const Explain& e) {
  std::string out;
  Appendf(out, "request-trace explain: %lld offered, %lld completed, %lld shed (slo %.1f us)\n",
          static_cast<long long>(e.offered), static_cast<long long>(e.completed),
          static_cast<long long>(e.shed), e.slo_us);
  Appendf(out, "e2e latency (completed): p50 %.1f us  p95 %.1f us  p99 %.1f us\n",
          e.e2e_p50_us, e.e2e_p95_us, e.e2e_p99_us);
  if (e.tail_rule == "worst-k") {
    Appendf(out, "tail: worst %lld completed request(s) by e2e\n",
            static_cast<long long>(e.tail_count));
  } else {
    Appendf(out, "tail: %lld completed request(s) above the SLO\n",
            static_cast<long long>(e.tail_count));
  }
  if (e.completed == 0) {
    out += "no completed requests: nothing to blame (all shed or empty dump)\n";
    return out;
  }

  out += "\nblame decomposition over the tail (share of tail e2e; all = share over every completed request)\n";
  Appendf(out, "  %-12s %12s %7s %7s %10s %10s %10s\n", "phase", "tail_ms", "tail%",
          "all%", "p50_us", "p95_us", "p99_us");
  for (const PhaseBlame& p : e.phases) {
    Appendf(out, "  %-12s %12.3f %6.1f%% %6.1f%% %10.1f %10.1f %10.1f\n",
            p.phase.c_str(), static_cast<double>(p.tail_total_ns) * 1e-6,
            p.tail_share * 100.0, p.all_share * 100.0, p.p50_us, p.p95_us, p.p99_us);
  }

  Appendf(out,
          "\nplan-miss penalty: cold exec mean %.1f us (n=%lld) vs warm %.1f us "
          "(n=%lld) -> +%.1f us per cold request\n",
          e.cold_exec_mean_us, static_cast<long long>(e.cold_count),
          e.warm_exec_mean_us, static_cast<long long>(e.warm_count),
          e.plan_miss_penalty_us);

  const auto group_table = [&out](const char* title,
                                  const std::vector<GroupBlame>& groups) {
    Appendf(out, "\n%s\n", title);
    Appendf(out, "  %-8s %8s %9s %6s %6s %10s %10s %10s  %s\n", "group", "offered",
            "completed", "shed", "tail", "p50_us", "p99_us", "exec_us", "top blame");
    for (const GroupBlame& g : groups) {
      if (g.top_phase == "-") {
        Appendf(out, "  %-8s %8lld %9lld %6lld %6lld %10.1f %10.1f %10.1f  -\n",
                g.name.c_str(), static_cast<long long>(g.offered),
                static_cast<long long>(g.completed), static_cast<long long>(g.shed),
                static_cast<long long>(g.tail), g.e2e_p50_us, g.e2e_p99_us,
                g.mean_exec_us);
      } else {
        Appendf(out, "  %-8s %8lld %9lld %6lld %6lld %10.1f %10.1f %10.1f  %s (%.1f%%)\n",
                g.name.c_str(), static_cast<long long>(g.offered),
                static_cast<long long>(g.completed), static_cast<long long>(g.shed),
                static_cast<long long>(g.tail), g.e2e_p50_us, g.e2e_p99_us,
                g.mean_exec_us, g.top_phase.c_str(), g.top_share * 100.0);
      }
    }
  };
  group_table("per priority tier (mean exec_us over completed; top blame over the tier's tail)",
              e.tiers);
  group_table("per replica (mean exec_us exposes device heterogeneity)", e.devices);
  return out;
}

std::string FormatExplainDiff(const Explain& before, const Explain& after) {
  std::string out;
  Appendf(out, "request-trace explain diff (before -> after)\n");
  Appendf(out, "  completed: %lld -> %lld   shed: %lld -> %lld   tail: %lld -> %lld\n",
          static_cast<long long>(before.completed), static_cast<long long>(after.completed),
          static_cast<long long>(before.shed), static_cast<long long>(after.shed),
          static_cast<long long>(before.tail_count),
          static_cast<long long>(after.tail_count));
  Appendf(out, "  e2e p99: %.1f -> %.1f us (%+.1f)\n", before.e2e_p99_us,
          after.e2e_p99_us, after.e2e_p99_us - before.e2e_p99_us);
  Appendf(out, "  plan-miss penalty: %+.1f -> %+.1f us\n", before.plan_miss_penalty_us,
          after.plan_miss_penalty_us);
  out += "\ntail blame shares\n";
  Appendf(out, "  %-12s %8s %8s %8s %12s %12s\n", "phase", "before%", "after%", "delta",
          "before_p99", "after_p99");
  for (size_t p = 0; p < before.phases.size() && p < after.phases.size(); ++p) {
    const PhaseBlame& a = before.phases[p];
    const PhaseBlame& b = after.phases[p];
    Appendf(out, "  %-12s %7.1f%% %7.1f%% %+7.1f%% %12.1f %12.1f\n", a.phase.c_str(),
            a.tail_share * 100.0, b.tail_share * 100.0,
            (b.tail_share - a.tail_share) * 100.0, a.p99_us, b.p99_us);
  }
  return out;
}

}  // namespace prof
}  // namespace minuet
