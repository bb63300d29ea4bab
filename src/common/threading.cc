#include "common/threading.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>

#include "common/logging.h"

namespace serigraph {

CyclicBarrier::CyclicBarrier(int parties) : parties_(parties) {
  SG_CHECK_GT(parties, 0);
}

bool CyclicBarrier::Await() {
  sy::MutexLock lock(&mu_);
  if (broken_) return false;
  uint64_t gen = generation_;
  if (++waiting_ == parties_) {
    waiting_ = 0;
    ++generation_;
    cv_.NotifyAll();
    return true;
  }
  while (generation_ == gen && !broken_) cv_.Wait(mu_);
  return false;
}

void CyclicBarrier::Break() {
  sy::MutexLock lock(&mu_);
  broken_ = true;
  waiting_ = 0;
  ++generation_;
  cv_.NotifyAll();
}

bool CyclicBarrier::broken() const {
  sy::MutexLock lock(&mu_);
  return broken_;
}

void CountDownLatch::CountDown() {
  sy::MutexLock lock(&mu_);
  if (count_ > 0 && --count_ == 0) cv_.NotifyAll();
}

void CountDownLatch::Wait() {
  sy::MutexLock lock(&mu_);
  while (count_ != 0) cv_.Wait(mu_);
}

ThreadPool::ThreadPool(int num_threads, Placement placement) {
  SG_CHECK_GT(num_threads, 0);
  threads_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
  if (placement != Placement::kOnePerCpu) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  std::vector<int> cpus;
  const int here = sched_getcpu();
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask) && cpu != here) cpus.push_back(cpu);
  }
  if (here >= 0 && CPU_ISSET(here, &mask)) cpus.push_back(here);
  for (int i = 0; i < num_threads; ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i % cpus.size()], &one);
    // Best effort: an unpinned thread still runs.
    pthread_setaffinity_np(threads_[i].native_handle(), sizeof(one), &one);
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Submit(std::function<void()> task) {
  {
    sy::MutexLock lock(&mu_);
    SG_CHECK(!shutdown_);
    queue_.push_back(std::move(task));
  }
  cv_task_.NotifyOne();
}

void ThreadPool::WaitIdle() {
  sy::MutexLock lock(&mu_);
  while (!queue_.empty() || active_ != 0) cv_idle_.Wait(mu_);
}

void ThreadPool::Shutdown() {
  {
    sy::MutexLock lock(&mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  cv_task_.NotifyAll();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      sy::MutexLock lock(&mu_);
      while (!shutdown_ && queue_.empty()) cv_task_.Wait(mu_);
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      sy::MutexLock lock(&mu_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.NotifyAll();
    }
  }
}

int AffinityCpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

void RunOnEach(ThreadPool* pool, int n, const std::function<void(int)>& fn) {
  for (int i = 1; i < n; ++i) pool->Submit([&fn, i] { fn(i); });
  fn(0);
  if (n > 1) pool->WaitIdle();
}

}  // namespace serigraph
