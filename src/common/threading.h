#ifndef SERIGRAPH_COMMON_THREADING_H_
#define SERIGRAPH_COMMON_THREADING_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace serigraph {

/// Reusable cyclic barrier for a fixed party count. Equivalent to
/// std::barrier but with a dynamic count known only at run time and no
/// completion function; used for superstep global barriers.
class CyclicBarrier {
 public:
  explicit CyclicBarrier(int parties);

  CyclicBarrier(const CyclicBarrier&) = delete;
  CyclicBarrier& operator=(const CyclicBarrier&) = delete;

  /// Blocks until all parties arrive. Returns true for exactly one caller
  /// per generation (the "serial" party), which may run phase-global work
  /// guarded by a subsequent Await(). On a broken barrier every Await
  /// (current waiters and all future arrivals) returns false immediately;
  /// callers that care must check their abort flag after a false return.
  bool Await();

  /// Permanently breaks the barrier: wakes every current waiter and makes
  /// all future Await calls return false without blocking. Used to release
  /// workers when a run attempt is aborted for recovery.
  void Break();

  bool broken() const;

  int parties() const { return parties_; }

 private:
  const int parties_;
  mutable sy::Mutex mu_;
  sy::CondVar cv_;
  int waiting_ SY_GUARDED_BY(mu_) = 0;
  uint64_t generation_ SY_GUARDED_BY(mu_) = 0;
  bool broken_ SY_GUARDED_BY(mu_) = false;
};

/// One-shot latch: Wait() blocks until CountDown() has been called `count`
/// times.
class CountDownLatch {
 public:
  explicit CountDownLatch(int count) : count_(count) {}

  void CountDown();
  void Wait();

 private:
  sy::Mutex mu_;
  sy::CondVar cv_;
  int count_ SY_GUARDED_BY(mu_);
};

/// Fixed-size pool of worker threads consuming a FIFO task queue.
/// Shutdown drains outstanding tasks before joining.
class ThreadPool {
 public:
  enum class Placement {
    /// Wherever the scheduler puts them.
    kScheduler,
    /// Each thread pinned to its own CPU of the creating thread's
    /// affinity mask, the creator's current CPU last, round-robin past
    /// the mask's size. For short data-parallel passes: a 4-vCPU VM was
    /// seen waking idle pool threads on the waker's CPU and keeping them
    /// there for whole 20 ms passes (docs/PERF.md, "Set-up on every
    /// core").
    kOnePerCpu,
  };

  explicit ThreadPool(int num_threads,
                      Placement placement = Placement::kScheduler);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`; must not be called after Shutdown().
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and all in-flight tasks finished.
  void WaitIdle();

  /// Stops accepting work, drains the queue, joins all threads. Idempotent.
  void Shutdown();

  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  void WorkerLoop();

  sy::Mutex mu_;
  sy::CondVar cv_task_;
  sy::CondVar cv_idle_;
  std::deque<std::function<void()>> queue_ SY_GUARDED_BY(mu_);
  int active_ SY_GUARDED_BY(mu_) = 0;
  bool shutdown_ SY_GUARDED_BY(mu_) = false;
  /// Joined by Shutdown(); only touched by the constructing thread.
  std::vector<std::thread> threads_;
};

/// CPUs this process may run on: the size of its affinity mask (what
/// `nproc` prints), at least 1.
int AffinityCpuCount();

/// Runs fn(0), ..., fn(n - 1) and returns when all of them have: fn(0)
/// on the calling thread and the rest as tasks on `pool`, which must be
/// idle (it may be null when n == 1). For data-parallel passes whose
/// tasks split one array between them; the waits block, never spin.
void RunOnEach(ThreadPool* pool, int n, const std::function<void(int)>& fn);

}  // namespace serigraph

#endif  // SERIGRAPH_COMMON_THREADING_H_
