// Fork-join loops over a fixed set of worker threads.
//
// ParallelFor(n, fn) calls fn(worker, i) once for every i in [0, n) on
// ParallelWorkers(n) workers. Worker 0 is the calling thread; workers
// 1, 2, ... are threads started for the call and joined before it returns.
// Workers claim indices in ascending order, so a caller that orders its
// items largest-first gets a greedy longest-first schedule. Which worker runs
// which index depends on timing: callers that need a deterministic result
// write each item's result into its own slot and reduce the slots in index
// order afterwards. Calls that share a worker id never overlap, so per-worker
// state (sized by ParallelWorkers(n)) needs no lock.
//
// An exception thrown by fn stops further claims and is rethrown on the
// calling thread once every worker has joined.
#ifndef SRC_UTIL_PARALLEL_H_
#define SRC_UTIL_PARALLEL_H_

#include <cstdint>

#include "src/util/function_ref.h"

namespace minuet {

// min(n, std::thread::hardware_concurrency()), and at least 1. Constant for
// a given n over the life of the process.
int ParallelWorkers(int64_t n);

void ParallelFor(int64_t n, FunctionRef<void(int worker, int64_t i)> fn);

}  // namespace minuet

#endif  // SRC_UTIL_PARALLEL_H_
