#include "src/serve/health.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "src/util/check.h"
#include "src/util/json_writer.h"

namespace minuet {
namespace serve {

namespace {

std::string ScopePrefix(int device) {
  return device < 0 ? "fleet/" : "dev" + std::to_string(device) + "/";
}

// Fixed-precision spelling for alert detail strings: snprintf with an
// explicit format is deterministic across runs and platforms.
std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3g", value);
  return buf;
}

// One multi-window burn-rate rule: fires when the burn rate over the last
// `long_windows` closed windows AND over the last `short_windows` both
// exceed `threshold`; resolves when either drops back under.
struct BurnRule {
  const char* name;
  int long_windows;  // sliding lengths, in closed windows
  int short_windows;
  double threshold;  // x budget
};

// "page": a fast, severe burn — 1.4% of traffic failing on a 0.1% budget,
// visible within 3 windows. "ticket": a slow leak at 2x budget sustained
// over 24 windows. Long/short ratios follow the SRE workbook (~4:1).
constexpr BurnRule kBurnRules[] = {
    {"page", /*long_windows=*/12, /*short_windows=*/3, /*threshold=*/14.0},
    {"ticket", /*long_windows=*/24, /*short_windows=*/6, /*threshold=*/2.0},
};
constexpr size_t kNumBurnRules = std::size(kBurnRules);
// The longest rule window: the history each scope keeps.
constexpr size_t kMaxHistory =
    static_cast<size_t>(std::max(kBurnRules[0].long_windows, kBurnRules[1].long_windows));

// Replica state thresholds, evaluated per closed window.
constexpr double kDegradedQueueFrac = 0.5;  // queue high-water / capacity
constexpr double kSaturatedQueueFrac = 0.9;
constexpr double kDegradedUtil = 0.85;  // busy_us / interval_us

}  // namespace

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kSaturated:
      return "saturated";
  }
  return "unknown";
}

std::string AlertJson(const AlertEvent& alert) {
  JsonWriter w;
  w.BeginObject();
  w.KV("t_us", alert.t_us);
  w.KV("window", alert.window);
  w.KV("device", static_cast<int64_t>(alert.device));
  w.KV("kind", alert.kind);
  w.KV("firing", alert.firing);
  w.KV("value", alert.value);
  w.KV("detail", alert.detail);
  w.EndObject();
  return w.TakeString();
}

HealthEngine::HealthEngine(const HealthConfig& config, int num_devices,
                           int64_t queue_capacity, double interval_us)
    : config_(config),
      num_devices_(num_devices),
      queue_capacity_(queue_capacity),
      interval_us_(interval_us) {
  MINUET_CHECK_GT(num_devices, 0);
  MINUET_CHECK_GT(interval_us, 0.0);
  MINUET_CHECK_GT(config_.slo_target, 0.0);
  MINUET_CHECK_LT(config_.slo_target, 1.0);
  history_.resize(static_cast<size_t>(NumScopes()));
  firing_.assign(static_cast<size_t>(NumScopes()), std::vector<bool>(kNumBurnRules, false));
  states_.assign(static_cast<size_t>(num_devices), HealthState::kHealthy);
}

double HealthEngine::BurnRate(int device, int windows) const {
  const auto& history = history_[static_cast<size_t>(device + 1)];
  double finished = 0.0;
  double bad = 0.0;
  const size_t n = std::min(history.size(), static_cast<size_t>(std::max(windows, 0)));
  for (size_t i = history.size() - n; i < history.size(); ++i) {
    finished += history[i].finished;
    bad += history[i].bad;
  }
  if (finished <= 0.0) {
    return 0.0;
  }
  return (bad / finished) / (1.0 - config_.slo_target);
}

void HealthEngine::OnWindow(const trace::TimeWindow& window, std::vector<AlertEvent>* out) {
  // Ingest this window's counters into every scope's history.
  for (int scope = 0; scope < NumScopes(); ++scope) {
    const std::string prefix = ScopePrefix(scope - 1);
    WindowCounts counts;
    const double completed = window.CounterOr(prefix + "completed", 0.0);
    const double shed = window.CounterOr(prefix + "shed", 0.0);
    const double slo_ok = window.CounterOr(prefix + "slo_ok", 0.0);
    counts.finished = completed + shed;
    counts.bad = std::max(0.0, counts.finished - slo_ok);
    auto& history = history_[static_cast<size_t>(scope)];
    history.push_back(counts);
    while (history.size() > kMaxHistory) {
      history.pop_front();
    }
  }
  Evaluate(window, out);
}

void HealthEngine::Evaluate(const trace::TimeWindow& window, std::vector<AlertEvent>* out) {
  const double t_us = window.end_us;

  // Burn-rate rules: rule-major, fleet scope before replicas, so the event
  // order within one window close is fixed.
  for (size_t r = 0; r < kNumBurnRules; ++r) {
    const BurnRule& rule = kBurnRules[r];
    for (int scope = 0; scope < NumScopes(); ++scope) {
      const int device = scope - 1;
      const double burn_long = BurnRate(device, rule.long_windows);
      const double burn_short = BurnRate(device, rule.short_windows);
      const bool now_firing = burn_long > rule.threshold && burn_short > rule.threshold;
      std::vector<bool>& scope_firing = firing_[static_cast<size_t>(scope)];
      if (now_firing == scope_firing[r]) {
        continue;
      }
      scope_firing[r] = now_firing;
      AlertEvent alert;
      alert.t_us = t_us;
      alert.window = window.index;
      alert.device = device;
      alert.kind = std::string("burn:") + rule.name;
      alert.firing = now_firing;
      alert.value = burn_short;
      alert.detail = std::string(now_firing ? "burn" : "recovered") + " long=" +
                     Num(burn_long) + " short=" + Num(burn_short) +
                     " threshold=" + Num(rule.threshold) + " over " +
                     std::to_string(rule.long_windows) + "/" +
                     std::to_string(rule.short_windows) + " windows";
      out->push_back(std::move(alert));
    }
  }

  // Replica health transitions, devices ascending.
  for (int k = 0; k < num_devices_; ++k) {
    const std::string prefix = ScopePrefix(k);
    const trace::GaugeWindow* depth = window.Gauge(prefix + "queue_depth");
    const double high_water = depth != nullptr ? depth->max : 0.0;
    const double queue_frac =
        queue_capacity_ > 0 ? high_water / static_cast<double>(queue_capacity_) : 0.0;
    const double util = window.CounterOr(prefix + "busy_us", 0.0) / interval_us_;
    const double shed = window.CounterOr(prefix + "shed", 0.0);

    HealthState next = HealthState::kHealthy;
    if (shed > 0.0 || queue_frac >= kSaturatedQueueFrac) {
      next = HealthState::kSaturated;
    } else if (queue_frac >= kDegradedQueueFrac || util >= kDegradedUtil) {
      next = HealthState::kDegraded;
    }
    HealthState& current = states_[static_cast<size_t>(k)];
    if (next == current) {
      continue;
    }
    AlertEvent alert;
    alert.t_us = t_us;
    alert.window = window.index;
    alert.device = k;
    alert.kind = "health";
    // A transition away from healthy is a firing edge; back to healthy
    // resolves. Degraded <-> saturated moves are firing edges too (the
    // condition is still active, only its severity changed).
    alert.firing = next != HealthState::kHealthy;
    alert.value = static_cast<double>(next);
    alert.detail = std::string(HealthStateName(current)) + " -> " + HealthStateName(next);
    current = next;
    out->push_back(std::move(alert));
  }
}

}  // namespace serve
}  // namespace minuet
