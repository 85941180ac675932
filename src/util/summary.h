// Small statistics helpers shared by benches (means, geomeans, percentiles,
// formatting) and the metrics registry (fixed-bucket histograms).
#ifndef SRC_UTIL_SUMMARY_H_
#define SRC_UTIL_SUMMARY_H_

#include <cstdint>
#include <string>
#include <vector>

namespace minuet {

double Mean(const std::vector<double>& values);
double GeoMean(const std::vector<double>& values);
double Median(std::vector<double> values);

// p-th percentile (p in [0, 100]) with linear interpolation between order
// statistics (the same convention as numpy.percentile's default). p=50
// matches Median; p=0/100 are the smallest and the largest value.
//
// An empty sample set returns kEmptyPercentile (0.0) instead of aborting:
// all-shed serving runs legitimately produce empty latency populations, and
// a report full of zeros round-trips through JSON where a NaN would decay to
// null (JsonWriter spells non-finite doubles as null).
inline constexpr double kEmptyPercentile = 0.0;
double Percentile(std::vector<double> values, double p);

// num / den, or 0 when den is 0: rates and ratios of degenerate runs (all
// shed, empty trace, zero duration) stay finite instead of NaN/Inf, which
// JsonWriter would decay to null in reports.
inline double SafeDiv(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Fixed-bucket histogram over [lower, upper): `num_buckets` equal-width
// buckets plus implicit underflow/overflow counts. Bucket edges are fixed at
// construction so histograms from different runs can be diffed bucket by
// bucket (the property a trajectory of BENCH_*.json points needs).
class FixedHistogram {
 public:
  FixedHistogram(double lower, double upper, int num_buckets);

  void Add(double value);

  int num_buckets() const { return static_cast<int>(counts_.size()); }
  double lower() const { return lower_; }
  double upper() const { return upper_; }
  // Inclusive lower edge of bucket i.
  double BucketLower(int i) const;
  uint64_t BucketCount(int i) const { return counts_[static_cast<size_t>(i)]; }
  uint64_t underflow() const { return underflow_; }
  uint64_t overflow() const { return overflow_; }
  uint64_t total_count() const { return total_count_; }
  bool empty() const { return total_count_ == 0; }
  double sum() const { return sum_; }
  // min/max of the samples seen; the 0.0 sentinel when the histogram is
  // empty (all-shed serving runs snapshot empty histograms — the accessors
  // must stay finite so JSON snapshots never carry nulls).
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  double lower_;
  double upper_;
  double bucket_width_;
  std::vector<uint64_t> counts_;
  uint64_t underflow_ = 0;
  uint64_t overflow_ = 0;
  uint64_t total_count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// printf-style append to `out` (one formatted line of a text report; output
// past 511 bytes per call is truncated).
void Appendf(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

}  // namespace minuet

#endif  // SRC_UTIL_SUMMARY_H_
