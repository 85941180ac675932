#include "src/util/summary.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>

#include "src/util/check.h"

namespace minuet {

double Mean(const std::vector<double>& values) {
  MINUET_CHECK(!values.empty());
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double GeoMean(const std::vector<double>& values) {
  MINUET_CHECK(!values.empty());
  double log_sum = 0.0;
  for (double v : values) {
    MINUET_CHECK_GT(v, 0.0);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Median(std::vector<double> values) {
  MINUET_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  if (n % 2 == 1) {
    return values[n / 2];
  }
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return kEmptyPercentile;
  }
  MINUET_CHECK_GE(p, 0.0);
  MINUET_CHECK_LE(p, 100.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) {
    return values[0];
  }
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

FixedHistogram::FixedHistogram(double lower, double upper, int num_buckets)
    : lower_(lower), upper_(upper) {
  MINUET_CHECK_GT(num_buckets, 0);
  MINUET_CHECK_LT(lower, upper);
  counts_.assign(static_cast<size_t>(num_buckets), 0);
  bucket_width_ = (upper - lower) / static_cast<double>(num_buckets);
}

void FixedHistogram::Add(double value) {
  if (total_count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++total_count_;
  sum_ += value;
  if (value < lower_) {
    ++underflow_;
  } else if (value >= upper_) {
    ++overflow_;
  } else {
    size_t bucket = static_cast<size_t>((value - lower_) / bucket_width_);
    // Rounding at the top edge can land one past the last bucket.
    bucket = std::min(bucket, counts_.size() - 1);
    ++counts_[bucket];
  }
}

double FixedHistogram::BucketLower(int i) const {
  return lower_ + static_cast<double>(i) * bucket_width_;
}

void Appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

}  // namespace minuet
