#include "src/util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/check.h"

namespace minuet {

namespace {

int64_t Cores() {
  // Read once: hardware_concurrency() may change with the CPU set, and
  // callers size per-worker state by this count before ParallelFor runs.
  static const int64_t kCores = std::max(1u, std::thread::hardware_concurrency());
  return kCores;
}

// One ParallelFor call on the pool. It lives on the caller's stack, which
// does not return before every pool thread that joined the call has left it.
struct Job {
  Job(FunctionRef<void(int, int64_t)> fn, int64_t n, int workers)
      : fn(fn), n(n), workers(workers), errors(static_cast<size_t>(workers)) {}

  FunctionRef<void(int, int64_t)> fn;
  int64_t n;
  int workers;
  std::atomic<int64_t> next{0};
  std::vector<std::exception_ptr> errors;  // one slot per worker
  int running = 0;                         // pool threads inside Work; under the pool's mutex

  void Work(int worker) {
    try {
      for (int64_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(worker, i);
      }
    } catch (...) {
      errors[static_cast<size_t>(worker)] = std::current_exception();
      next.store(n);  // the other workers stop at their next claim
    }
  }
};

thread_local bool tls_pool_thread = false;
thread_local int tls_calls = 0;  // ParallelFor calls running on this thread

// Cores() - 1 threads; thread t is worker t of every call it joins. They
// start with the first call that needs them and are joined at exit.
class WorkerPool {
 public:
  static WorkerPool& Get() {
    static WorkerPool pool(static_cast<int>(Cores()) - 1);
    return pool;
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    // threads_ joins them as it is destroyed.
  }

  // Takes the pool for one call; false while another call holds it.
  bool TryAcquire() { return !busy_.exchange(true, std::memory_order_acquire); }

  // Runs `job` with the calling thread as worker 0, then releases the pool.
  void Run(Job& job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      ++generation_;
    }
    wake_.notify_all();
    job.Work(0);
    {
      // Close the call: threads that wake from here on skip it, so the caller
      // waits only for those already inside, never for a slow wake-up.
      std::unique_lock<std::mutex> lock(mu_);
      job_ = nullptr;
      done_.wait(lock, [&] { return job.running == 0; });
    }
    busy_.store(false, std::memory_order_release);
  }

 private:
  explicit WorkerPool(int threads) {
    threads_.reserve(static_cast<size_t>(threads));
    for (int worker = 1; worker <= threads; ++worker) {
      threads_.emplace_back([this, worker] { Loop(worker); });
    }
  }

  void Loop(int worker) {
    tls_pool_thread = true;
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      wake_.wait(lock, [&] { return stop_ || (job_ != nullptr && generation_ != seen); });
      if (stop_) {
        return;
      }
      seen = generation_;
      Job& job = *job_;
      if (worker >= job.workers) {
        continue;
      }
      ++job.running;
      lock.unlock();
      job.Work(worker);  // catches what fn throws
      lock.lock();
      if (--job.running == 0) {
        done_.notify_one();
      }
    }
  }

  std::atomic<bool> busy_{false};
  std::mutex mu_;                 // guards job_, generation_, stop_ and Job::running
  std::condition_variable wake_;  // a call was published, or stop_ set
  std::condition_variable done_;  // the last pool thread left a call
  Job* job_ = nullptr;            // the open call, if any
  uint64_t generation_ = 0;       // calls published so far
  bool stop_ = false;
  std::vector<std::jthread> threads_;  // last: joined before the state above goes
};

}  // namespace

int ParallelWorkers(int64_t n) { return static_cast<int>(std::clamp<int64_t>(n, 1, Cores())); }

bool InsideParallelFor() { return tls_pool_thread || tls_calls > 0; }

void ParallelFor(int64_t n, FunctionRef<void(int worker, int64_t i)> fn) {
  MINUET_CHECK_GE(n, 0);
  struct CallScope {
    CallScope() { ++tls_calls; }
    ~CallScope() { --tls_calls; }
  } scope;
  const int workers = ParallelWorkers(n);
  if (workers > 1 && !tls_pool_thread) {
    Job job(fn, n, workers);
    WorkerPool& pool = WorkerPool::Get();
    if (pool.TryAcquire()) {
      pool.Run(job);
      for (const std::exception_ptr& error : job.errors) {
        if (error) {
          std::rethrow_exception(error);
        }
      }
      return;
    }
  }
  for (int64_t i = 0; i < n; ++i) {
    fn(0, i);
  }
}

}  // namespace minuet
