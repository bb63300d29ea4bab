#ifndef SERIGRAPH_COMMON_METRICS_H_
#define SERIGRAPH_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace serigraph {

/// Thread-safe monotonically increasing counter. It is one process-shared
/// atomic cell: every Add from a different core moves its cache line, so
/// it is not meant for per-vertex or per-message updates. Hot loops tally
/// into a local and Add once per batch (the engine folds once per
/// partition run; docs/PERF.md, "Hot-path statistics").
class Counter {
 public:
  Counter() : value_(0) {}

  // mo: stat cell; no ordering role
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  // mo: stat cell; no ordering role
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  // mo: stat cell; no ordering role
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_;
};

/// Thread-safe gauge that also tracks the maximum value ever observed.
/// Used e.g. for the "concurrent executing workers" parallelism index.
class MaxGauge {
 public:
  MaxGauge() : value_(0), max_(0) {}

  /// Adjusts the gauge by `delta` and folds the new value into the max.
  void Add(int64_t delta) {
    // mo: stat cell; no ordering role
    int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    // mo: stat cell; no ordering role
    int64_t prev = max_.load(std::memory_order_relaxed);
    while (now > prev &&  // mo: stat cell; no ordering role
           !max_.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
    }
  }

  /// Sets the gauge to the absolute sample `v` and folds it into the max.
  /// For sampled depth/occupancy gauges (queue depth, RSS) where deltas
  /// are not available.
  void Observe(int64_t v) {
    // mo: stat cell; no ordering role
    value_.store(v, std::memory_order_relaxed);
    // mo: stat cell; no ordering role
    int64_t prev = max_.load(std::memory_order_relaxed);
    while (v > prev &&  // mo: stat cell; no ordering role
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }

  // mo: stat cell; no ordering role
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  // mo: stat cell; no ordering role
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void Reset() {
    // mo: stat cell; no ordering role
    value_.store(0, std::memory_order_relaxed);
    // mo: stat cell; no ordering role
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> value_;
  std::atomic<int64_t> max_;
};

/// Fixed-bucket log2 histogram of non-negative samples (thread-safe).
/// Used for latency distributions (fork-wait, token-hold, barrier-wait);
/// see MetricRegistry::GetHistogram and the DESIGN.md observability
/// section for the naming scheme.
class Histogram {
 public:
  static constexpr int kNumBuckets = 48;

  Histogram();

  void Record(int64_t sample);
  // mo: stat cell; no ordering role
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  // mo: stat cell; no ordering role
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Largest sample ever recorded (exact, not bucketed); 0 when empty.
  // mo: stat cell; no ordering role
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  double Mean() const;
  /// Approximate quantile from bucket boundaries: returns an upper bound
  /// of the bucket holding the q-th sample, capped at the exact max.
  /// Edge cases: empty histogram -> 0; q (including NaN) is clamped to
  /// [0,1]; q=0 reports the first non-empty bucket, q=1 the exact max.
  int64_t ApproxQuantile(double q) const;
  void Reset();

 private:
  std::atomic<int64_t> buckets_[kNumBuckets];
  std::atomic<int64_t> count_;
  std::atomic<int64_t> sum_;
  std::atomic<int64_t> max_;
};

/// Named registry of counters for a single engine run. Components hold
/// pointers to counters they update; the harness snapshots and prints them.
/// Counter pointers remain valid for the registry's lifetime.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Returns the counter registered under `name`, creating it on first use.
  Counter* GetCounter(const std::string& name);
  /// Returns the max-gauge registered under `name`, creating it on first use.
  MaxGauge* GetGauge(const std::string& name);
  /// Returns the histogram registered under `name`, creating it on first
  /// use. Histograms surface in Snapshot() as `name.p50/.p95/.max/.count`
  /// (plus `.sum` so callers can derive shares and means).
  Histogram* GetHistogram(const std::string& name);

  /// Snapshot of all counter values (gauges report their max; histograms
  /// expand into their quantile/max/count/sum sub-keys).
  std::map<std::string, int64_t> Snapshot() const;
  void ResetAll();

 private:
  mutable sy::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ SY_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<MaxGauge>> gauges_ SY_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      SY_GUARDED_BY(mu_);
};

}  // namespace serigraph

#endif  // SERIGRAPH_COMMON_METRICS_H_
