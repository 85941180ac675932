#include "src/core/kernel_map.h"

#include <gtest/gtest.h>

namespace minuet {
namespace {

MapPositionTable MakeTable(int64_t num_offsets, int64_t num_outputs,
                           std::vector<uint32_t> positions) {
  MapPositionTable t;
  t.num_offsets = num_offsets;
  t.num_outputs = num_outputs;
  t.positions.assign(positions.begin(), positions.end());
  return t;
}

TEST(KernelMapTest, CompactSkipsNoMatchEntries) {
  auto table = MakeTable(2, 3, {5, kNoMatch, 7, kNoMatch, kNoMatch, 2});
  std::vector<Coord3> offsets = {{0, 0, 0}, {1, 0, 0}};
  KernelMap map = CompactPositionTable(table, offsets, nullptr);
  ASSERT_EQ(map.num_offsets(), 2);
  ASSERT_EQ(map.entries[0].size(), 2u);
  EXPECT_EQ(map.entries[0][0], (MapPair{5, 0}));
  EXPECT_EQ(map.entries[0][1], (MapPair{7, 2}));
  ASSERT_EQ(map.entries[1].size(), 1u);
  EXPECT_EQ(map.entries[1][0], (MapPair{2, 2}));
}

TEST(KernelMapTest, TotalEntriesAndCounts) {
  auto table = MakeTable(2, 2, {1, 2, kNoMatch, kNoMatch});
  KernelMap map = CompactPositionTable(table, {{0, 0, 0}, {1, 1, 1}}, nullptr);
  EXPECT_EQ(map.TotalEntries(), 2);
  EXPECT_EQ(map.EntryCounts(), (std::vector<int64_t>{2, 0}));
}

TEST(KernelMapTest, EmptyTable) {
  auto table = MakeTable(1, 0, {});
  KernelMap map = CompactPositionTable(table, {{0, 0, 0}}, nullptr);
  EXPECT_EQ(map.TotalEntries(), 0);
}

TEST(KernelMapTest, EntriesAreSortedByOutputIndex) {
  auto table = MakeTable(1, 4, {3, 1, kNoMatch, 0});
  KernelMap map = CompactPositionTable(table, {{0, 0, 0}}, nullptr);
  ASSERT_EQ(map.entries[0].size(), 3u);
  for (size_t i = 1; i < map.entries[0].size(); ++i) {
    EXPECT_LT(map.entries[0][i - 1].output_index, map.entries[0][i].output_index);
  }
}

}  // namespace
}  // namespace minuet
