#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/kernel_map.h"
#include "src/gpusim/device_config.h"
#include "src/hashtable/cuckoo.h"
#include "src/hashtable/linear_probe.h"
#include "src/hashtable/spatial.h"
#include "src/util/rng.h"

namespace minuet {
namespace {

// Keys, probes and results live in the device's memory, like every buffer a
// kernel reads or writes.
DeviceVector<uint64_t> UniqueRandomKeys(Device& dev, size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  DeviceVector<uint64_t> keys(dev.memory());
  keys.reserve(n);
  while (keys.size() < n) {
    uint64_t k = (static_cast<uint64_t>(rng.Next()) << 32 | rng.Next()) >> 1;  // < 2^63
    keys.push_back(k);
  }
  // Dedup while preserving count: collisions in 63 bits are vanishingly rare
  // for test sizes; assert instead of handling.
  auto copy = keys;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(std::adjacent_find(copy.begin(), copy.end()), copy.end());
  return keys;
}

enum class TableKind { kLinear, kCuckoo, kSpatial };

std::unique_ptr<HashTableBase> MakeTable(TableKind kind) {
  switch (kind) {
    case TableKind::kLinear:
      return std::make_unique<LinearProbeHashTable>();
    case TableKind::kCuckoo:
      return std::make_unique<CuckooHashTable>();
    case TableKind::kSpatial:
      return std::make_unique<SpatialHashTable>();
  }
  return nullptr;
}

class HashTableSuite : public ::testing::TestWithParam<TableKind> {};

TEST_P(HashTableSuite, FindsEveryInsertedKey) {
  Device dev(MakeRtx3090());
  auto table = MakeTable(GetParam());
  auto keys = UniqueRandomKeys(dev, 20000, 1);
  table->Build(dev, keys);
  DeviceVector<uint32_t> results(keys.size(), 0, dev.memory());
  table->Query(dev, keys, results);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(results[i], static_cast<uint32_t>(i)) << table->name() << " key " << i;
  }
}

TEST_P(HashTableSuite, MissingKeysReturnNoMatch) {
  Device dev(MakeRtx3090());
  auto table = MakeTable(GetParam());
  auto keys = UniqueRandomKeys(dev, 10000, 2);
  table->Build(dev, keys);
  // Probe keys disjoint from the built set (different seed, then filter).
  auto probes = UniqueRandomKeys(dev, 5000, 3);
  DeviceVector<uint32_t> results(probes.size(), 0, dev.memory());
  table->Query(dev, probes, results);
  std::vector<uint64_t> sorted_keys(keys.begin(), keys.end());
  std::sort(sorted_keys.begin(), sorted_keys.end());
  for (size_t i = 0; i < probes.size(); ++i) {
    bool present = std::binary_search(sorted_keys.begin(), sorted_keys.end(), probes[i]);
    if (!present) {
      EXPECT_EQ(results[i], kNoMatch);
    }
  }
}

TEST_P(HashTableSuite, MixedHitsAndMisses) {
  Device dev(MakeRtx3090());
  auto table = MakeTable(GetParam());
  auto keys = UniqueRandomKeys(dev, 5000, 4);
  table->Build(dev, keys);
  DeviceVector<uint64_t> probes(dev.memory());
  std::vector<bool> expect_hit;
  for (size_t i = 0; i < keys.size(); i += 2) {
    probes.push_back(keys[i]);
    expect_hit.push_back(true);
    probes.push_back(keys[i] ^ 0x1);  // likely absent
    expect_hit.push_back(false);
  }
  std::vector<uint64_t> sorted_keys(keys.begin(), keys.end());
  std::sort(sorted_keys.begin(), sorted_keys.end());
  DeviceVector<uint32_t> results(probes.size(), dev.memory());
  table->Query(dev, probes, results);
  for (size_t i = 0; i < probes.size(); ++i) {
    bool present = std::binary_search(sorted_keys.begin(), sorted_keys.end(), probes[i]);
    EXPECT_EQ(results[i] != kNoMatch, present);
  }
}

TEST_P(HashTableSuite, RebuildReplacesContents) {
  Device dev(MakeRtx3090());
  auto table = MakeTable(GetParam());
  auto first = UniqueRandomKeys(dev, 1000, 5);
  table->Build(dev, first);
  auto second = UniqueRandomKeys(dev, 1000, 6);
  table->Build(dev, second);
  DeviceVector<uint32_t> results(second.size(), dev.memory());
  table->Query(dev, second, results);
  for (size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<uint32_t>(i));
  }
}

TEST_P(HashTableSuite, EmptyBuildAnswersAllMisses) {
  Device dev(MakeRtx3090());
  auto table = MakeTable(GetParam());
  table->Build(dev, {});
  const DeviceVector<uint64_t> probes = ToDevice(dev.memory(), std::vector<uint64_t>{1, 2, 3});
  DeviceVector<uint32_t> results(probes.size(), dev.memory());
  table->Query(dev, probes, results);
  for (uint32_t r : results) {
    EXPECT_EQ(r, kNoMatch);
  }
}

TEST_P(HashTableSuite, QueryChargesDeviceWork) {
  Device dev(MakeRtx3090());
  auto table = MakeTable(GetParam());
  auto keys = UniqueRandomKeys(dev, 30000, 7);
  table->Build(dev, keys);
  DeviceVector<uint32_t> results(keys.size(), dev.memory());
  KernelStats stats = table->Query(dev, keys, results);
  EXPECT_EQ(stats.num_launches, 1);
  EXPECT_GT(stats.cycles, 0.0);
  // Every query must at least read the probe and one slot/bucket.
  EXPECT_GE(stats.global_bytes_read, keys.size() * (sizeof(uint64_t) + sizeof(HashSlot)));
}

INSTANTIATE_TEST_SUITE_P(AllTables, HashTableSuite,
                         ::testing::Values(TableKind::kLinear, TableKind::kCuckoo,
                                           TableKind::kSpatial),
                         [](const ::testing::TestParamInfo<TableKind>& info) {
                           switch (info.param) {
                             case TableKind::kLinear:
                               return "LinearProbe";
                             case TableKind::kCuckoo:
                               return "Cuckoo";
                             case TableKind::kSpatial:
                               return "Spatial";
                           }
                           return "Unknown";
                         });

TEST(CuckooTest, HighLoadFactorSpillsToStashButStaysCorrect) {
  Device dev(MakeRtx3090());
  CuckooHashTable table(/*load_factor=*/0.9, /*max_evictions=*/16);
  auto keys = UniqueRandomKeys(dev, 20000, 8);
  table.Build(dev, keys);
  DeviceVector<uint32_t> results(keys.size(), dev.memory());
  table.Query(dev, keys, results);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(results[i], static_cast<uint32_t>(i));
  }
}

TEST(SpatialTest, KeyBucketsAreLineSized) {
  EXPECT_EQ(SpatialHashTable::kBucketSlots * sizeof(uint64_t), 128u);
}

TEST(LinearProbeTest, CapacityRespectsLoadFactor) {
  Device dev(MakeRtx3090());
  LinearProbeHashTable table(0.25);
  auto keys = UniqueRandomKeys(dev, 1000, 9);
  table.Build(dev, keys);
  EXPECT_GE(table.capacity(), 4000u);
}

}  // namespace
}  // namespace minuet
