#include "src/gpusim/kernel_name.h"

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace minuet {
namespace {

TEST(KernelIdTest, ConcurrentInternAgreesOnIds) {
  constexpr int kNames = 100;
  constexpr int kThreads = 4;
  std::vector<std::string> names;
  for (int i = 0; i < kNames; ++i) {
    names.push_back("test/concurrent_intern/k" + std::to_string(i));
  }
  const size_t before = KernelId::Count();

  // Each thread interns every name in its own order and records the ids by
  // name index.
  std::vector<std::vector<uint32_t>> ids(kThreads, std::vector<uint32_t>(kNames));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<int> order(kNames);
      for (int i = 0; i < kNames; ++i) {
        order[static_cast<size_t>(i)] = i;
      }
      Pcg32 rng(static_cast<uint64_t>(t) + 1);
      for (int i = kNames - 1; i > 0; --i) {
        std::swap(order[static_cast<size_t>(i)],
                  order[rng.NextBounded(static_cast<uint32_t>(i) + 1)]);
      }
      for (int i : order) {
        const KernelId id = KernelId::Intern(names[static_cast<size_t>(i)]);
        EXPECT_EQ(id.name(), names[static_cast<size_t>(i)]);
        EXPECT_LT(id.index(), KernelId::Count());
        ids[static_cast<size_t>(t)][static_cast<size_t>(i)] = id.index();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  // One id per name, agreed by every thread, and the new ids are dense.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[static_cast<size_t>(t)], ids[0]) << "thread " << t;
  }
  EXPECT_EQ(KernelId::Count(), before + kNames);
  std::set<uint32_t> distinct(ids[0].begin(), ids[0].end());
  ASSERT_EQ(distinct.size(), static_cast<size_t>(kNames));
  EXPECT_EQ(*distinct.begin(), before);
  EXPECT_EQ(*distinct.rbegin(), before + kNames - 1);
}

}  // namespace
}  // namespace minuet
