#include "src/util/parallel.h"

#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace minuet {
namespace {

TEST(ParallelForTest, RunsEveryIndexOnceWithWorkerZeroOnTheCaller) {
  constexpr int64_t kItems = 37;
  const int workers = ParallelWorkers(kItems);
  EXPECT_GE(workers, 1);
  EXPECT_LE(workers, kItems);
  EXPECT_EQ(ParallelWorkers(0), 1);
  EXPECT_EQ(ParallelWorkers(1), 1);

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> visits(kItems, 0);
  std::vector<int> worker_of(kItems, -1);
  std::vector<std::thread::id> thread_of(kItems);
  ParallelFor(kItems, [&](int worker, int64_t i) {
    ++visits[static_cast<size_t>(i)];
    worker_of[static_cast<size_t>(i)] = worker;
    thread_of[static_cast<size_t>(i)] = std::this_thread::get_id();
  });
  for (int64_t i = 0; i < kItems; ++i) {
    const size_t slot = static_cast<size_t>(i);
    EXPECT_EQ(visits[slot], 1) << i;
    EXPECT_GE(worker_of[slot], 0);
    EXPECT_LT(worker_of[slot], workers);
    EXPECT_EQ(worker_of[slot] == 0, thread_of[slot] == caller) << i;
  }

  ParallelFor(0, [](int, int64_t) { ADD_FAILURE() << "no items, no calls"; });
}

TEST(ParallelForTest, RethrowsOnTheCallerAfterJoining) {
  EXPECT_THROW(ParallelFor(16,
                           [](int, int64_t i) {
                             if (i == 5) {
                               throw std::runtime_error("item 5");
                             }
                           }),
               std::runtime_error);
}

}  // namespace
}  // namespace minuet
