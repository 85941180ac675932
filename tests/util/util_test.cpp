#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/summary.h"
#include "src/util/timer.h"

namespace minuet {
namespace {

TEST(CheckTest, PassingCheckIsSilent) {
  MINUET_CHECK(true);
  MINUET_CHECK_EQ(1, 1);
  MINUET_CHECK_LT(1, 2);
  MINUET_CHECK_GE(2, 2);
}

TEST(CheckTest, FailingCheckAborts) {
  EXPECT_DEATH(MINUET_CHECK(false) << "boom", "boom");
  EXPECT_DEATH(MINUET_CHECK_EQ(1, 2), "1 vs 2");
}

TEST(RngTest, DeterministicForSameSeed) {
  Pcg32 a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += (a.Next() == b.Next()) ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Pcg32 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Pcg32 rng(8);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.NextBounded(8)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, n / 8, n / 8 / 5);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Pcg32 rng(9);
  std::set<int32_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int32_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextIntCoversTheSymmetricInt32Range) {
  // hi - lo is 2^32 - 2, and lo plus a draw passes INT32_MAX on the way: the
  // sum must be formed without signed overflow and land in range.
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  Pcg32 rng(10);
  bool negative = false;
  bool positive = false;
  for (int i = 0; i < 1000; ++i) {
    const int32_t v = rng.NextInt(-kMax, kMax);
    EXPECT_GE(v, -kMax);
    negative |= v < 0;
    positive |= v > 0;
  }
  EXPECT_TRUE(negative);
  EXPECT_TRUE(positive);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Pcg32 rng(10);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMomentsAreSane) {
  Pcg32 rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(SplitMixTest, ProducesDistinctStreams) {
  uint64_t state = 123;
  uint64_t a = SplitMix64(state);
  uint64_t b = SplitMix64(state);
  uint64_t c = SplitMix64(state);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
}

TEST(SummaryTest, MeanMedianMinMax) {
  std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Median(v), 2.5);
  EXPECT_DOUBLE_EQ(Median({5.0, 1.0, 9.0}), 5.0);
}

TEST(SummaryTest, GeoMean) {
  EXPECT_DOUBLE_EQ(GeoMean({4.0, 1.0}), 2.0);
  EXPECT_NEAR(GeoMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
  EXPECT_DEATH(GeoMean({1.0, 0.0}), "");
}

TEST(SummaryTest, PercentileMatchesOrderStatistics) {
  std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), Median(v));
  EXPECT_DOUBLE_EQ(Percentile({5.0, 1.0, 9.0}, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 95.0), 7.0);
}

TEST(SummaryTest, PercentileInterpolatesLinearly) {
  // numpy.percentile convention: rank = p/100 * (n-1), linear between
  // neighbours. For {10,20,30,40}: p25 → rank 0.75 → 17.5.
  std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 25.0), 17.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 75.0), 32.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 90.0), 37.0);
}

TEST(SummaryTest, PercentileOfEmptySampleIsSentinel) {
  // All-shed serving runs produce empty latency populations; the percentile
  // must come back as the finite sentinel, not abort or return NaN (which
  // JsonWriter would decay to null in reports).
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), kEmptyPercentile);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.0), kEmptyPercentile);
  EXPECT_DOUBLE_EQ(Percentile({}, 100.0), kEmptyPercentile);
  EXPECT_TRUE(std::isfinite(Percentile({}, 99.0)));
}

TEST(FixedHistogramTest, EmptyHistogramStaysFinite) {
  FixedHistogram hist(0.0, 100.0, 10);
  EXPECT_TRUE(hist.empty());
  EXPECT_EQ(hist.total_count(), 0u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.0);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 0.0);
  hist.Add(7.0);
  EXPECT_FALSE(hist.empty());
  EXPECT_DOUBLE_EQ(hist.min(), 7.0);
  EXPECT_DOUBLE_EQ(hist.max(), 7.0);
}

TEST(FixedHistogramTest, BucketPlacement) {
  FixedHistogram hist(0.0, 10.0, 5);  // width 2
  hist.Add(0.0);   // bucket 0 (inclusive lower edge)
  hist.Add(1.99);  // bucket 0
  hist.Add(2.0);   // bucket 1
  hist.Add(9.99);  // bucket 4
  EXPECT_EQ(hist.BucketCount(0), 2u);
  EXPECT_EQ(hist.BucketCount(1), 1u);
  EXPECT_EQ(hist.BucketCount(4), 1u);
  EXPECT_EQ(hist.underflow(), 0u);
  EXPECT_EQ(hist.overflow(), 0u);
  EXPECT_EQ(hist.total_count(), 4u);
  EXPECT_DOUBLE_EQ(hist.BucketLower(0), 0.0);
  EXPECT_DOUBLE_EQ(hist.BucketLower(4), 8.0);
}

TEST(FixedHistogramTest, UnderflowAndOverflow) {
  FixedHistogram hist(0.0, 10.0, 5);
  hist.Add(-0.001);  // below lower
  hist.Add(10.0);    // upper edge is exclusive
  hist.Add(1e9);
  EXPECT_EQ(hist.underflow(), 1u);
  EXPECT_EQ(hist.overflow(), 2u);
  EXPECT_EQ(hist.total_count(), 3u);  // out-of-range values still counted
  for (int i = 0; i < hist.num_buckets(); ++i) {
    EXPECT_EQ(hist.BucketCount(i), 0u);
  }
}

TEST(FixedHistogramTest, TracksSumMinMax) {
  FixedHistogram hist(0.0, 100.0, 10);
  hist.Add(5.0);
  hist.Add(-3.0);  // underflow still feeds sum/min/max
  hist.Add(42.0);
  EXPECT_DOUBLE_EQ(hist.sum(), 44.0);
  EXPECT_DOUBLE_EQ(hist.min(), -3.0);
  EXPECT_DOUBLE_EQ(hist.max(), 42.0);
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) {
    x = x + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(timer.ElapsedSeconds(), 0.0);
  double first = timer.ElapsedMillis();
  double second = timer.ElapsedMillis();
  EXPECT_LE(first, second);
  timer.Reset();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace minuet
