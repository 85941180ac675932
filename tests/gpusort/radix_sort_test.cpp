#include "src/gpusort/radix_sort.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/coordinate.h"
#include "src/gpusim/device_config.h"
#include "src/util/rng.h"

namespace minuet {
namespace {

// Sort inputs live in the device's memory, like every buffer a kernel reads.
DeviceVector<uint64_t> RandomKeys(Device& dev, size_t n, uint64_t limit, uint64_t seed) {
  Pcg32 rng(seed);
  DeviceVector<uint64_t> keys(n, dev.memory());
  for (auto& k : keys) {
    k = (static_cast<uint64_t>(rng.Next()) << 32 | rng.Next()) % limit;
  }
  return keys;
}

TEST(RadixSortTest, SortsRandomKeys) {
  Device dev(MakeRtx3090());
  auto keys = RandomKeys(dev, 10000, UINT64_MAX, 1);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  RadixSortKeys(dev, keys);
  EXPECT_EQ(keys, expect);
}

TEST(RadixSortTest, EmptyAndSingleton) {
  Device dev(MakeRtx3090());
  DeviceVector<uint64_t> empty(dev.memory());
  EXPECT_EQ(RadixSortKeys(dev, empty).passes_total, 0);
  DeviceVector<uint64_t> one(1, 42, dev.memory());
  EXPECT_EQ(RadixSortKeys(dev, one).passes_total, 0);
  EXPECT_EQ(one[0], 42u);
}

TEST(RadixSortTest, AlreadySorted) {
  Device dev(MakeRtx3090());
  DeviceVector<uint64_t> keys(5000, dev.memory());
  std::iota(keys.begin(), keys.end(), 0u);
  auto expect = keys;
  RadixSortKeys(dev, keys);
  EXPECT_EQ(keys, expect);
}

TEST(RadixSortTest, AllEqualKeysSkipAllScatters) {
  Device dev(MakeRtx3090());
  DeviceVector<uint64_t> keys(5000, 7u, dev.memory());
  SortStats stats = RadixSortKeys(dev, keys);
  EXPECT_EQ(stats.passes_scattered, 0);
  EXPECT_EQ(keys[0], 7u);
}

TEST(RadixSortTest, NarrowKeysSkipHighDigitScatters) {
  Device dev(MakeRtx3090());
  auto keys = RandomKeys(dev, 20000, 1 << 16, 3);  // only low 16 bits vary
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  SortStats stats = RadixSortKeys(dev, keys);
  EXPECT_EQ(keys, expect);
  EXPECT_LE(stats.passes_scattered, 2);
  EXPECT_EQ(stats.passes_total, 8);
}

TEST(RadixSortTest, BitRangeRestrictionSortsOnlyThoseBits) {
  Device dev(MakeRtx3090());
  auto keys = RandomKeys(dev, 10000, 1 << 20, 4);
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  SortStats stats = RadixSortPairs(dev, keys, {}, 0, 24);
  EXPECT_EQ(keys, expect);
  EXPECT_EQ(stats.passes_total, 3);
}

TEST(RadixSortTest, PairsPermuteValuesWithKeys) {
  Device dev(MakeRtx3090());
  auto keys = RandomKeys(dev, 8000, UINT64_MAX, 5);
  DeviceVector<uint32_t> values(keys.size(), dev.memory());
  std::iota(values.begin(), values.end(), 0u);
  auto original = keys;
  RadixSortPairs(dev, keys, values);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(original[values[i]], keys[i]);
  }
}

TEST(RadixSortTest, StableForDuplicateKeys) {
  Device dev(MakeRtx3090());
  DeviceVector<uint64_t> keys(dev.memory());
  DeviceVector<uint32_t> values(dev.memory());
  Pcg32 rng(6);
  for (uint32_t i = 0; i < 9000; ++i) {
    keys.push_back(rng.NextBounded(64));  // many duplicates
    values.push_back(i);
  }
  RadixSortPairs(dev, keys, values);
  for (size_t i = 1; i < keys.size(); ++i) {
    ASSERT_LE(keys[i - 1], keys[i]);
    if (keys[i - 1] == keys[i]) {
      EXPECT_LT(values[i - 1], values[i]) << "stability violated at " << i;
    }
  }
}

TEST(RadixSortTest, SortingChargesKernelLaunches) {
  Device dev(MakeRtx3090());
  auto keys = RandomKeys(dev, 100000, UINT64_MAX, 7);
  SortStats stats = RadixSortKeys(dev, keys);
  EXPECT_EQ(stats.passes_scattered, 8);
  // 8 histograms + 8 scans + 8 scatters.
  EXPECT_EQ(stats.kernels.num_launches, 24);
  EXPECT_GT(stats.kernels.cycles, 0.0);
  EXPECT_GT(stats.kernels.global_bytes_read, keys.size() * sizeof(uint64_t) * 8);
}

TEST(RadixSortTest, SortsPackedCoordinateKeys) {
  Device dev(MakeRtx3090());
  Pcg32 rng(8);
  DeviceVector<uint64_t> keys(dev.memory());
  for (int i = 0; i < 30000; ++i) {
    keys.push_back(PackCoord(
        Coord3{rng.NextInt(-200, 200), rng.NextInt(-200, 200), rng.NextInt(-200, 200)}));
  }
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  RadixSortKeys(dev, keys);
  EXPECT_EQ(keys, expect);
}

TEST(RadixSortCoordTest, CompactCoordSortMatchesPlainSort) {
  Device dev(MakeRtx3090());
  Pcg32 rng(21);
  DeviceVector<uint64_t> keys(dev.memory());
  for (int i = 0; i < 40000; ++i) {
    keys.push_back(PackCoord(
        Coord3{rng.NextInt(-700, 300), rng.NextInt(-100, 900), rng.NextInt(-512, 511)}));
  }
  DeviceVector<uint32_t> values(keys.size(), dev.memory());
  std::iota(values.begin(), values.end(), 0u);
  auto original = keys;
  SortStats stats = RadixSortCoordPairs(dev, keys, values);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(original[values[i]], keys[i]);
  }
  // Spans of ~1000 per axis -> ~10 bits/axis -> about 4 digit passes, far
  // fewer than the 8 a blind 63-bit sort needs.
  EXPECT_LE(stats.passes_total, 5);
}

TEST(RadixSortCoordTest, CompactSortCheaperThanPlainSort) {
  Pcg32 rng(22);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 100000; ++i) {
    keys.push_back(PackCoord(
        Coord3{rng.NextInt(-200, 200), rng.NextInt(-200, 200), rng.NextInt(-200, 200)}));
  }
  std::vector<uint32_t> values(keys.size());
  std::iota(values.begin(), values.end(), 0u);
  Device dev_a(MakeRtx3090());
  DeviceVector<uint64_t> keys_a = ToDevice(dev_a.memory(), keys);
  DeviceVector<uint32_t> values_a = ToDevice(dev_a.memory(), values);
  SortStats compact = RadixSortCoordPairs(dev_a, keys_a, values_a);
  Device dev_b(MakeRtx3090());
  DeviceVector<uint64_t> keys_b = ToDevice(dev_b.memory(), keys);
  DeviceVector<uint32_t> values_b = ToDevice(dev_b.memory(), values);
  SortStats plain = RadixSortPairs(dev_b, keys_b, values_b, 0, 63);
  EXPECT_EQ(keys_a, keys_b);
  EXPECT_LT(compact.kernels.cycles, plain.kernels.cycles);
}

TEST(RadixSortCoordTest, TinyInputs) {
  Device dev(MakeRtx3090());
  DeviceVector<uint64_t> empty(dev.memory());
  EXPECT_EQ(RadixSortCoordPairs(dev, empty, {}).passes_total, 0);
  DeviceVector<uint64_t> one(1, PackCoord(Coord3{1, 2, 3}), dev.memory());
  DeviceVector<uint32_t> one_v(1, 0, dev.memory());
  RadixSortCoordPairs(dev, one, one_v);
  EXPECT_EQ(one[0], PackCoord(Coord3{1, 2, 3}));
}

class RadixSortSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(RadixSortSizeSweep, MatchesStdSort) {
  Device dev(MakeRtx3090());
  auto keys = RandomKeys(dev, GetParam(), UINT64_MAX, 100 + GetParam());
  auto expect = keys;
  std::sort(expect.begin(), expect.end());
  RadixSortKeys(dev, keys);
  EXPECT_EQ(keys, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RadixSortSizeSweep,
                         ::testing::Values(2, 3, 100, 4095, 4096, 4097, 50000));

}  // namespace
}  // namespace minuet
