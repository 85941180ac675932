#include "src/util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "src/util/check.h"

namespace minuet {

int ParallelWorkers(int64_t n) {
  // Read once: hardware_concurrency() may change with the CPU set, and
  // callers size per-worker state by this count before ParallelFor runs.
  static const int64_t kCores = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::clamp<int64_t>(n, 1, kCores));
}

void ParallelFor(int64_t n, FunctionRef<void(int worker, int64_t i)> fn) {
  MINUET_CHECK_GE(n, 0);
  const int workers = ParallelWorkers(n);
  std::atomic<int64_t> next{0};
  std::vector<std::exception_ptr> errors(static_cast<size_t>(workers));
  auto work = [&](int worker) {
    try {
      for (int64_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(worker, i);
      }
    } catch (...) {
      errors[static_cast<size_t>(worker)] = std::current_exception();
      next.store(n);  // the other workers stop at their next claim
    }
  };
  std::vector<std::jthread> threads;
  threads.reserve(static_cast<size_t>(workers - 1));
  for (int worker = 1; worker < workers; ++worker) {
    threads.emplace_back(work, worker);
  }
  work(0);
  threads.clear();  // joins
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace minuet
