// The fork-join pool behind ParallelFor (parallel.h, DESIGN.md §9).

#include "src/kernels/parallel.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "src/util/sync.h"

namespace rgae {
namespace kernels {

namespace {

using TaskFn = std::function<void(int, int)>;

/// CPUs in the process's affinity mask, at least 1.
int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

class Pool {
 public:
  /// Starts size - 1 workers; the caller of Run is the size-th thread.
  explicit Pool(int size) : size_(size), limit_(size) {
    for (int w = 1; w < size_; ++w) {
      threads_.emplace_back([this, w] { WorkerLoop(w); });
    }
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  int limit() const { return limit_.load(std::memory_order_relaxed); }

  void SetLimit(int workers) {
    limit_.store(workers <= 0 ? size_ : std::min(workers, size_),
                 std::memory_order_relaxed);
  }

  void Run(int tasks, const TaskFn& fn) {
    const int threads = std::min(limit(), tasks);
    bool shared = false;
    if (threads > 1) {
      MutexLock lock(mu_);
      if (fn_ == nullptr) {
        shared = true;
        fn_ = &fn;
        tasks_ = tasks;
        participants_ = threads;
        running_ = threads - 1;
        next_.store(0, std::memory_order_relaxed);
        ++generation_;
      }
    }
    if (!shared) {  // One task, one thread, or the pool is in use: inline.
      for (int t = 0; t < tasks; ++t) fn(t, 0);
      return;
    }
    start_cv_.NotifyAll();
    std::exception_ptr error = RunTasks(fn, tasks, 0);
    {
      MutexLock lock(mu_);
      done_cv_.Wait(mu_, [this]() RGAE_REQUIRES(mu_) { return running_ == 0; });
      if (error == nullptr) error = error_;
      error_ = nullptr;
      fn_ = nullptr;
    }
    if (error != nullptr) std::rethrow_exception(error);
  }

 private:
  void WorkerLoop(int worker) {
    uint64_t seen = 0;
    for (;;) {
      const TaskFn* fn = nullptr;
      int tasks = 0;
      {
        MutexLock lock(mu_);
        start_cv_.Wait(mu_, [this, worker, seen]() RGAE_REQUIRES(mu_) {
          return fn_ != nullptr && generation_ != seen &&
                 worker < participants_;
        });
        seen = generation_;
        fn = fn_;
        tasks = tasks_;
      }
      const std::exception_ptr error = RunTasks(*fn, tasks, worker);
      MutexLock lock(mu_);
      if (error != nullptr && error_ == nullptr) error_ = error;
      if (--running_ == 0) done_cv_.NotifyOne();
    }
  }

  /// Claims and runs tasks until none is left. Returns what a task threw,
  /// after stopping every thread from claiming another.
  std::exception_ptr RunTasks(const TaskFn& fn, int tasks, int worker) {
    try {
      for (int t = next_.fetch_add(1); t < tasks; t = next_.fetch_add(1)) {
        fn(t, worker);
      }
    } catch (...) {
      next_.store(tasks);
      return std::current_exception();
    }
    return nullptr;
  }

  const int size_;
  std::atomic<int> limit_;
  std::atomic<int> next_{0};  // Claim counter of the call in flight.

  Mutex mu_;
  CondVar start_cv_;  // Workers wait here for a call.
  CondVar done_cv_;   // The caller waits here for its workers.
  uint64_t generation_ RGAE_GUARDED_BY(mu_) = 0;  // Calls shared so far.
  int participants_ RGAE_GUARDED_BY(mu_) = 0;     // Threads of the last one.
  int running_ RGAE_GUARDED_BY(mu_) = 0;  // Its workers yet to finish.
  const TaskFn* fn_ RGAE_GUARDED_BY(mu_) = nullptr;  // Null when idle.
  int tasks_ RGAE_GUARDED_BY(mu_) = 0;
  std::exception_ptr error_ RGAE_GUARDED_BY(mu_);

  // Declared last: the workers use every member above. They block on
  // start_cv_ until the process exits and are never joined, because the
  // pool is never destroyed (see Global).
  std::vector<std::thread> threads_;
};

/// Created on first use and never destroyed: an exit-time destructor would
/// race any late caller.
Pool& Global() {
  static Pool* pool = new Pool(AffinityCpus());  // Never dies.
  return *pool;
}

}  // namespace

int ParallelWorkers() { return Global().limit(); }

void ParallelFor(int tasks,
                 const std::function<void(int task, int worker)>& fn) {
  Global().Run(tasks, fn);
}

void SetParallelWorkersForTesting(int workers) { Global().SetLimit(workers); }

}  // namespace kernels
}  // namespace rgae
