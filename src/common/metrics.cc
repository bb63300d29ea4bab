#include "common/metrics.h"

#include <bit>
#include <memory>

namespace serigraph {

namespace {

constexpr int kSubBits = Histogram::kSubBucketBits;
constexpr int kSubs = Histogram::kSubBuckets;

int BucketFor(int64_t sample) {
  if (sample < kSubs) return sample <= 0 ? 0 : static_cast<int>(sample);
  const int octave = 63 - std::countl_zero(static_cast<uint64_t>(sample));
  if (octave > Histogram::kMaxOctave) return Histogram::kNumBuckets - 1;
  const int sub = static_cast<int>(sample >> (octave - kSubBits)) & (kSubs - 1);
  return kSubs * (octave - kSubBits + 1) + sub;
}

/// The largest sample BucketFor maps to `bucket` (the last bucket's
/// nominal bound; larger samples land there too).
int64_t UpperBound(int bucket) {
  if (bucket < kSubs) return bucket;
  const int octave = bucket / kSubs + kSubBits - 1;
  const int64_t width = int64_t{1} << (octave - kSubBits);
  return (int64_t{1} << octave) + (bucket % kSubs + 1) * width - 1;
}

}  // namespace

Histogram::Histogram() { Reset(); }

void Histogram::Record(int64_t sample) {
  // mo: stat cell; no ordering role
  buckets_[BucketFor(sample)].fetch_add(1, std::memory_order_relaxed);
  // mo: stat cell; no ordering role
  count_.fetch_add(1, std::memory_order_relaxed);
  // mo: stat cell; no ordering role
  sum_.fetch_add(sample, std::memory_order_relaxed);
  // mo: stat cell; no ordering role
  int64_t prev = max_.load(std::memory_order_relaxed);
  while (sample > prev &&
         !max_.compare_exchange_weak(prev, sample,
                                     // mo: stat cell; no ordering role
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::Mean() const {
  int64_t c = count();
  return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
}

int64_t Histogram::ApproxQuantile(double q) const {
  int64_t total = count();
  if (total == 0) return 0;
  // Clamp q into [0,1]; the negated comparison also routes NaN to 0.
  if (!(q >= 0)) q = 0;
  if (q > 1) q = 1;
  int64_t target = static_cast<int64_t>(q * static_cast<double>(total - 1));
  const int64_t observed_max = max();
  int64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    // mo: stat cell; no ordering role
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen > target) {
      // Never reported beyond the largest sample actually seen, so q=1
      // returns the exact max (bucket 0 holds the samples <= 0).
      const int64_t bound = UpperBound(b);
      return bound < observed_max ? bound : observed_max;
    }
  }
  return observed_max;
}

void Histogram::Reset() {
  // mo: stat cell; no ordering role
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  // mo: stat cell; no ordering role
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);  // mo: stat cell; no ordering role
  max_.store(0, std::memory_order_relaxed);  // mo: stat cell; no ordering role
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  sy::MutexLock lock(&mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

MaxGauge* MetricRegistry::GetGauge(const std::string& name) {
  sy::MutexLock lock(&mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<MaxGauge>();
  return slot.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name) {
  sy::MutexLock lock(&mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::map<std::string, int64_t> MetricRegistry::Snapshot() const {
  sy::MutexLock lock(&mu_);
  std::map<std::string, int64_t> out;
  for (const auto& [name, counter] : counters_) out[name] = counter->value();
  for (const auto& [name, gauge] : gauges_) out[name] = gauge->max();
  for (const auto& [name, histogram] : histograms_) {
    out[name + ".p50"] = histogram->ApproxQuantile(0.5);
    out[name + ".p95"] = histogram->ApproxQuantile(0.95);
    out[name + ".max"] = histogram->max();
    out[name + ".count"] = histogram->count();
    out[name + ".sum"] = histogram->sum();
  }
  return out;
}

void MetricRegistry::ResetAll() {
  sy::MutexLock lock(&mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace serigraph
