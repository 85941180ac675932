#include "src/serve/scheduler.h"

#include <algorithm>
#include <numeric>

#include "src/trace/metrics.h"
#include "src/util/check.h"
#include "src/util/summary.h"

namespace minuet {
namespace serve {

std::vector<size_t> PickBatch(const std::vector<QueueEntry>& queue, AdmissionPolicy policy,
                              int64_t max_batch_size) {
  if (queue.empty() || max_batch_size < 1) {
    return {};
  }
  std::vector<size_t> order(queue.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const QueueEntry& ea = queue[a];
    const QueueEntry& eb = queue[b];
    switch (policy) {
      case AdmissionPolicy::kSjf:
        if (ea.request->points != eb.request->points) {
          return ea.request->points < eb.request->points;
        }
        break;
      case AdmissionPolicy::kPriority:
        if (ea.request->priority != eb.request->priority) {
          return ea.request->priority < eb.request->priority;
        }
        break;
      case AdmissionPolicy::kFifo:
        break;
    }
    return ea.admit_order < eb.admit_order;
  });
  const int head_class = queue[order[0]].request->batch_class;
  std::vector<size_t> batch;
  for (size_t idx : order) {
    if (queue[idx].request->batch_class != head_class) {
      continue;
    }
    batch.push_back(idx);
    if (static_cast<int64_t>(batch.size()) >= max_batch_size) {
      break;
    }
  }
  return batch;
}

double BatchServiceCycles(const std::vector<double>& request_cycles, int stream_pool_size) {
  if (request_cycles.empty()) {
    return 0.0;
  }
  const int streams = std::max(1, stream_pool_size);
  double critical = 0.0;
  double serial = 0.0;
  for (double cycles : request_cycles) {
    critical = std::max(critical, cycles);
    serial += cycles;
  }
  const double ways = static_cast<double>(
      std::min<int64_t>(static_cast<int64_t>(request_cycles.size()), streams));
  return std::max(critical, serial / ways);
}

ServeSummary Summarize(const std::vector<RequestRecord>& requests,
                       const std::vector<BatchRecord>& batches,
                       const SchedulerConfig& config) {
  ServeSummary s;
  s.offered = static_cast<int64_t>(requests.size());
  std::vector<double> queue_us, service_us, latency_us;
  int64_t within_slo = 0;
  int64_t last_event_ns = 0;
  for (const RequestRecord& record : requests) {
    last_event_ns = std::max(last_event_ns, record.arrival_ns);
    if (record.shed) {
      ++s.shed;
      continue;
    }
    ++s.completed;
    last_event_ns = std::max(last_event_ns, record.completion_ns);
    if (record.warm) {
      ++s.warm_requests;
    }
    queue_us.push_back(record.QueueUs());
    service_us.push_back(record.ServiceUs());
    latency_us.push_back(record.LatencyUs());
    if (record.LatencyUs() <= config.slo_us) {
      ++within_slo;
    }
  }
  s.admitted = s.offered - s.shed;
  s.num_batches = static_cast<int64_t>(batches.size());
  s.duration_us = NsToUs(last_event_ns);
  // The one definition of busy time: the serving clock's batch flights.
  int64_t busy_ns = 0;
  for (const BatchRecord& batch : batches) {
    busy_ns += batch.completion_ns - batch.dispatch_ns;
  }
  s.server_busy_us = NsToUs(busy_ns);
  // All rates through SafeDiv: an all-shed trace has completions = 0 and can
  // even have duration 0 (every arrival stamped t=0), and the summary must
  // stay finite through JSON round-trips either way.
  const double duration_s = s.duration_us / 1e6;
  s.offered_rps = SafeDiv(static_cast<double>(s.offered), duration_s);
  s.throughput_rps = SafeDiv(static_cast<double>(s.completed), duration_s);
  s.goodput_rps = SafeDiv(static_cast<double>(within_slo), duration_s);
  s.utilization = SafeDiv(s.server_busy_us, s.duration_us);
  s.shed_rate = SafeDiv(static_cast<double>(s.shed), static_cast<double>(s.offered));
  s.slo_attainment =
      SafeDiv(static_cast<double>(within_slo), static_cast<double>(s.completed));
  s.mean_batch_size =
      SafeDiv(static_cast<double>(s.completed), static_cast<double>(s.num_batches));
  // Percentile returns the kEmptyPercentile sentinel on empty populations, so
  // the all-shed case needs no special-casing here.
  s.queue_p50_us = Percentile(queue_us, 50.0);
  s.queue_p95_us = Percentile(queue_us, 95.0);
  s.queue_p99_us = Percentile(queue_us, 99.0);
  s.service_p50_us = Percentile(service_us, 50.0);
  s.service_p95_us = Percentile(service_us, 95.0);
  s.service_p99_us = Percentile(service_us, 99.0);
  s.latency_p50_us = Percentile(latency_us, 50.0);
  s.latency_p95_us = Percentile(latency_us, 95.0);
  s.latency_p99_us = Percentile(latency_us, 99.0);
  return s;
}

void PublishServeMetrics(const SchedulerConfig& config, const std::vector<RequestRecord>& requests,
                         const ServeSummary& s, trace::MetricsRegistry& registry) {
  registry.GetCounter("serve/offered").Set(s.offered);
  registry.GetCounter("serve/admitted").Set(s.admitted);
  registry.GetCounter("serve/shed").Set(s.shed);
  registry.GetCounter("serve/completed").Set(s.completed);
  registry.GetCounter("serve/batches").Set(s.num_batches);
  registry.GetCounter("serve/warm_requests").Set(s.warm_requests);
  registry.GetLabel("serve/policy").Set(AdmissionPolicyName(config.policy));
  registry.GetGauge("serve/duration_us").Set(s.duration_us);
  registry.GetGauge("serve/offered_rps").Set(s.offered_rps);
  registry.GetGauge("serve/throughput_rps").Set(s.throughput_rps);
  registry.GetGauge("serve/goodput_rps").Set(s.goodput_rps);
  registry.GetGauge("serve/shed_rate").Set(s.shed_rate);
  registry.GetGauge("serve/slo_attainment").Set(s.slo_attainment);
  registry.GetGauge("serve/utilization").Set(s.utilization);
  registry.GetGauge("serve/mean_batch_size").Set(s.mean_batch_size);
  registry.GetGauge("serve/queue_p99_us").Set(s.queue_p99_us);
  registry.GetGauge("serve/latency_p50_us").Set(s.latency_p50_us);
  registry.GetGauge("serve/latency_p95_us").Set(s.latency_p95_us);
  registry.GetGauge("serve/latency_p99_us").Set(s.latency_p99_us);
  // Fixed layout (0..100ms in 2ms buckets) so snapshots diff across configs.
  FixedHistogram& queue_hist = registry.GetHistogram("serve/queue_us", 0.0, 100000.0, 50);
  FixedHistogram& latency_hist = registry.GetHistogram("serve/latency_us", 0.0, 100000.0, 50);
  for (const RequestRecord& record : requests) {
    if (record.shed) {
      continue;
    }
    queue_hist.Add(record.QueueUs());
    latency_hist.Add(record.LatencyUs());
  }
}

}  // namespace serve
}  // namespace minuet
