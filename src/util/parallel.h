// Fork-join loops over a process-wide pool of worker threads.
//
// ParallelFor(n, fn) calls fn(worker, i) once for every i in [0, n) on up to
// ParallelWorkers(n) workers. Worker 0 is the calling thread; workers 1, 2,
// ... are pool threads, started on first use and kept for the life of the
// process. Between calls they block; they never spin. Workers claim indices
// in ascending order, so a caller that orders its items largest-first gets a
// greedy longest-first schedule. Which worker runs which index depends on
// timing, and a pool thread that wakes after every index is claimed takes
// none: callers that need a deterministic result write each item's result
// into its own slot and reduce the slots in index order afterwards. Within
// one call, items that share a worker id never overlap, so the call's
// per-worker state (sized by ParallelWorkers(n)) needs no lock.
//
// One call holds the pool at a time. A call made from a pool thread, or
// while another call holds the pool (a nested call on the holder's own
// thread, or a concurrent one), runs all its items inline on the caller as
// worker 0, in index order. So nested and concurrent callers can neither
// deadlock nor start more threads than the pool has.
//
// An exception thrown by fn stops further claims and is rethrown on the
// calling thread once every worker has left the call.
#ifndef SRC_UTIL_PARALLEL_H_
#define SRC_UTIL_PARALLEL_H_

#include <cstdint>

#include "src/util/function_ref.h"

namespace minuet {

// min(n, std::thread::hardware_concurrency()), and at least 1. Constant for
// a given n over the life of the process.
int ParallelWorkers(int64_t n);

void ParallelFor(int64_t n, FunctionRef<void(int worker, int64_t i)> fn);

// True on a pool thread, and on a thread while a ParallelFor it called runs:
// there a further ParallelFor would run inline.
bool InsideParallelFor();

}  // namespace minuet

#endif  // SRC_UTIL_PARALLEL_H_
