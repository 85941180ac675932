#include "src/util/parallel.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
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

  // No item is still running when the exception reaches the caller, and no
  // index ran twice.
  constexpr int64_t kItems = 64;
  std::atomic<int> running{0};
  std::vector<std::atomic<int>> visits(kItems);
  try {
    ParallelFor(kItems, [&](int, int64_t i) {
      running.fetch_add(1);
      visits[static_cast<size_t>(i)].fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      running.fetch_sub(1);
      if (i == 3) {
        throw std::runtime_error("item 3");
      }
    });
    ADD_FAILURE() << "item 3 threw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "item 3");
  }
  EXPECT_EQ(running.load(), 0);
  for (const std::atomic<int>& v : visits) {
    EXPECT_LE(v.load(), 1);
  }

  // The pool is free again afterwards.
  std::atomic<int64_t> sum{0};
  ParallelFor(kItems, [&](int, int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), kItems * (kItems - 1) / 2);
}

// Enough work per item that the pool threads wake while indices remain.
void Spin(int64_t i) {
  volatile uint64_t x = static_cast<uint64_t>(i);
  for (int r = 0; r < 20000; ++r) {
    x = x * 3 + 1;
  }
}

TEST(ParallelForTest, ReusesThePoolThreadsAcrossCalls) {
  constexpr int64_t kItems = 24;
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::set<std::thread::id> others;
  for (int call = 0; call < 100; ++call) {
    ParallelFor(kItems, [&](int worker, int64_t i) {
      Spin(i);
      const std::thread::id self = std::this_thread::get_id();
      EXPECT_EQ(worker == 0, self == caller);
      if (self != caller) {
        std::lock_guard<std::mutex> lock(mu);
        others.insert(self);
      }
    });
  }
  EXPECT_LE(others.size(), static_cast<size_t>(ParallelWorkers(kItems) - 1));
}

TEST(ParallelForTest, NestedCallRunsInlineOnItsCaller) {
  constexpr int64_t kOuter = 8;
  constexpr int64_t kInner = 16;
  std::vector<std::vector<int>> visits(kOuter, std::vector<int>(kInner, 0));
  std::vector<int> off_thread(kOuter, 0);
  ParallelFor(kOuter, [&](int, int64_t o) {
    const std::thread::id outer = std::this_thread::get_id();
    std::vector<int>& mine = visits[static_cast<size_t>(o)];
    ParallelFor(kInner, [&](int worker, int64_t i) {
      Spin(i);
      ++mine[static_cast<size_t>(i)];
      if (worker != 0 || std::this_thread::get_id() != outer) {
        ++off_thread[static_cast<size_t>(o)];
      }
    });
  });
  for (int64_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(off_thread[static_cast<size_t>(o)], 0) << o;
    for (int64_t i = 0; i < kInner; ++i) {
      EXPECT_EQ(visits[static_cast<size_t>(o)][static_cast<size_t>(i)], 1) << o << ", " << i;
    }
  }
}

TEST(ParallelForTest, ConcurrentCallersEachSeeEveryIndexOnce) {
  constexpr int64_t kItems = 200;
  constexpr int kCallers = 2;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::vector<std::atomic<int>>> visits(kCallers);
    for (auto& v : visits) {
      v = std::vector<std::atomic<int>>(kItems);
    }
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&visits, c] {
        ParallelFor(kItems, [&](int, int64_t i) {
          Spin(i % 8);
          visits[static_cast<size_t>(c)][static_cast<size_t>(i)].fetch_add(1);
        });
      });
    }
    for (std::thread& t : callers) {
      t.join();
    }
    for (int c = 0; c < kCallers; ++c) {
      for (int64_t i = 0; i < kItems; ++i) {
        ASSERT_EQ(visits[static_cast<size_t>(c)][static_cast<size_t>(i)].load(), 1)
            << "caller " << c << ", index " << i;
      }
    }
  }
}

}  // namespace
}  // namespace minuet
