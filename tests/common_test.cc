// Tests for the common substrate: RNG, metrics, serialization, threading.

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/threading.h"
#include "common/timer.h"

namespace serigraph {
namespace {

// --- Rng ------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.Uniform(bound), bound);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit in 1000 draws
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);  // rough uniformity
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, JumpMatchesStepping) {
  // x^0, x^5 and (scripts/xoshiro_jump.py 1000) x^1000.
  const uint64_t none[4] = {1, 0, 0, 0};
  const uint64_t five[4] = {0x20, 0, 0, 0};
  const uint64_t thousand[4] = {0x288d1ee30c52d42a, 0xc9a2d442bc6dd488,
                                0x7d1d43fb70df7580, 0xd6710c4366183917};
  for (const uint64_t seed : {uint64_t{1}, uint64_t{77}, uint64_t{1} << 40}) {
    for (const auto& [poly, steps] :
         {std::pair{&none, 0}, std::pair{&five, 5}, std::pair{&thousand, 1000}}) {
      Rng stepped(seed);
      for (int i = 0; i < steps; ++i) stepped.Next();
      Rng jumped(seed);
      jumped.Jump(*poly);
      for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(jumped.Next(), stepped.Next())
            << "seed " << seed << ", " << steps << " steps";
      }
    }
  }
}

// --- Metrics ----------------------------------------------------------

TEST(MetricsTest, CounterConcurrentIncrements) {
  Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), 40000);
}

TEST(MetricsTest, MaxGaugeTracksPeak) {
  MaxGauge gauge;
  gauge.Add(3);
  gauge.Add(4);
  gauge.Add(-5);
  gauge.Add(1);
  EXPECT_EQ(gauge.value(), 3);
  EXPECT_EQ(gauge.max(), 7);
}

TEST(MetricsTest, HistogramQuantilesAndMean) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_NEAR(h.Mean(), 500.5, 0.1);
  // The median of 1..1000 (500) lands in the sub-bucket [448, 511].
  EXPECT_EQ(h.ApproxQuantile(0.5), 511);
  EXPECT_LE(h.ApproxQuantile(0.0), 1);
}

TEST(MetricsTest, HistogramQuantilesWithinOneSubBucket) {
  // 10000 log-uniform samples from 100 to about 14800, like a latency
  // spread. Each reported quantile must be the upper bound of the
  // sub-bucket holding the true one: at most a quarter octave above it.
  // (A bound per octave reports p50 = 2047 for a true 1218.)
  Histogram h;
  std::vector<int64_t> samples;
  for (int i = 0; i < 10000; ++i) {
    samples.push_back(static_cast<int64_t>(100 * std::pow(1.0005, i)));
    h.Record(samples.back());
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.05, 0.25, 0.5, 0.75, 0.95, 0.99}) {
    const int64_t truth = samples[static_cast<size_t>(
        q * static_cast<double>(samples.size() - 1))];
    const int64_t width = int64_t{1}
                          << (std::bit_width(static_cast<uint64_t>(truth)) -
                              1 - Histogram::kSubBucketBits);
    const int64_t got = h.ApproxQuantile(q);
    EXPECT_GE(got, truth) << "q=" << q;
    EXPECT_LT(got - truth, width) << "q=" << q << ", true " << truth;
  }
  // Samples below kSubBuckets are exact, and the cap still holds.
  Histogram small;
  for (const int64_t v : {1, 2, 2, 3, 3, 3}) small.Record(v);
  EXPECT_EQ(small.ApproxQuantile(0.0), 1);
  EXPECT_EQ(small.ApproxQuantile(0.5), 2);
  EXPECT_EQ(small.ApproxQuantile(1.0), 3);
}

TEST(MetricsTest, HistogramQuantileEdgeCases) {
  Histogram empty;
  EXPECT_EQ(empty.count(), 0);
  EXPECT_EQ(empty.ApproxQuantile(0.0), 0);
  EXPECT_EQ(empty.ApproxQuantile(0.5), 0);
  EXPECT_EQ(empty.ApproxQuantile(1.0), 0);
  EXPECT_EQ(empty.max(), 0);

  Histogram h;
  h.Record(7);
  // A single sample is every quantile, and the estimate must never
  // exceed the observed maximum (the bucket's upper bound is capped).
  EXPECT_EQ(h.ApproxQuantile(0.0), 7);
  EXPECT_EQ(h.ApproxQuantile(0.5), 7);
  EXPECT_EQ(h.ApproxQuantile(1.0), 7);
  EXPECT_EQ(h.max(), 7);

  // Out-of-range q clamps instead of crashing.
  EXPECT_EQ(h.ApproxQuantile(-3.0), h.ApproxQuantile(0.0));
  EXPECT_EQ(h.ApproxQuantile(42.0), h.ApproxQuantile(1.0));
}

TEST(MetricsTest, HistogramMaxTracksLargestSample) {
  Histogram h;
  h.Record(3);
  h.Record(100000);
  h.Record(50);
  EXPECT_EQ(h.max(), 100000);
  EXPECT_LE(h.ApproxQuantile(1.0), 100000);
  h.Reset();
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.count(), 0);
}

TEST(MetricsTest, RegistryHistogramSnapshotKeys) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("lat");
  EXPECT_EQ(h, registry.GetHistogram("lat"));
  for (int i = 1; i <= 100; ++i) h->Record(i);
  auto snapshot = registry.Snapshot();
  ASSERT_TRUE(snapshot.count("lat.p50"));
  ASSERT_TRUE(snapshot.count("lat.p95"));
  ASSERT_TRUE(snapshot.count("lat.max"));
  ASSERT_TRUE(snapshot.count("lat.count"));
  EXPECT_EQ(snapshot["lat.count"], 100);
  EXPECT_EQ(snapshot["lat.max"], 100);
  EXPECT_LE(snapshot["lat.p50"], snapshot["lat.p95"]);
  EXPECT_LE(snapshot["lat.p95"], snapshot["lat.max"]);
  registry.ResetAll();
  EXPECT_EQ(registry.Snapshot()["lat.count"], 0);
}

// Back-to-back runs over one registry (the bench harness pattern): the
// second run's quantiles must reflect only the second run's samples, not
// a mixture with stale buckets from the first.
TEST(MetricsTest, HistogramResetBetweenBackToBackRuns) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("fork_wait_us");

  // Run 1: large samples dominate the upper quantiles.
  for (int i = 0; i < 100; ++i) h->Record(1 << 20);
  EXPECT_GE(h->ApproxQuantile(0.5), 1 << 20);
  registry.ResetAll();
  EXPECT_EQ(h->count(), 0);
  EXPECT_EQ(h->sum(), 0);
  EXPECT_EQ(h->max(), 0);
  EXPECT_EQ(h->ApproxQuantile(0.5), 0);

  // Run 2: small samples only; any surviving run-1 bucket would pull the
  // p95 up by orders of magnitude.
  for (int i = 0; i < 100; ++i) h->Record(8);
  EXPECT_EQ(h->count(), 100);
  EXPECT_EQ(h->sum(), 800);
  EXPECT_EQ(h->max(), 8);
  EXPECT_LT(h->ApproxQuantile(0.95), 1 << 20);
  EXPECT_LE(h->ApproxQuantile(1.0), 8);

  // The same pointer stays registered after the reset.
  EXPECT_EQ(h, registry.GetHistogram("fork_wait_us"));
  auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot["fork_wait_us.count"], 100);
  EXPECT_EQ(snapshot["fork_wait_us.max"], 8);
}

TEST(MetricsTest, RegistryReturnsSameCounterForSameName) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  a->Add(5);
  auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot["x"], 5);
  registry.ResetAll();
  EXPECT_EQ(registry.Snapshot()["x"], 0);
}

// --- Serialization ---------------------------------------------------

TEST(SerializeTest, PrimitiveRoundTrip) {
  BufferWriter writer;
  writer.WriteU8(0xab);
  writer.WriteU32(0xdeadbeef);
  writer.WriteU64(1ull << 62);
  writer.WriteI64(-123456789);
  writer.WriteDouble(3.25);
  writer.WriteString("hello");

  BufferReader reader(writer.data());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double d;
  std::string s;
  ASSERT_TRUE(reader.ReadU8(&u8));
  ASSERT_TRUE(reader.ReadU32(&u32));
  ASSERT_TRUE(reader.ReadU64(&u64));
  ASSERT_TRUE(reader.ReadI64(&i64));
  ASSERT_TRUE(reader.ReadDouble(&d));
  ASSERT_TRUE(reader.ReadString(&s));
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 1ull << 62);
  EXPECT_EQ(i64, -123456789);
  EXPECT_EQ(d, 3.25);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SerializeTest, VarintBoundaries) {
  const uint64_t values[] = {0,       1,        127,        128,
                             16383,   16384,    (1u << 21) - 1,
                             1u << 21, ~0ull >> 1, ~0ull};
  BufferWriter writer;
  for (uint64_t v : values) writer.WriteVarint(v);
  BufferReader reader(writer.data());
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(reader.ReadVarint(&got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SerializeTest, SignedVarintRoundTrip) {
  const int64_t values[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  BufferWriter writer;
  for (int64_t v : values) writer.WriteSignedVarint(v);
  BufferReader reader(writer.data());
  for (int64_t v : values) {
    int64_t got;
    ASSERT_TRUE(reader.ReadSignedVarint(&got));
    EXPECT_EQ(got, v);
  }
}

TEST(SerializeTest, UnderflowReturnsFalse) {
  BufferWriter writer;
  writer.WriteU8(1);
  BufferReader reader(writer.data());
  uint64_t u64;
  EXPECT_FALSE(reader.ReadU64(&u64));
  std::string s;
  EXPECT_FALSE(reader.ReadString(&s));
}

TEST(SerializeTest, StringLengthLargerThanRemainingFails) {
  BufferWriter writer;
  writer.WriteVarint(100);  // claims 100 bytes follow
  writer.WriteU8('x');
  BufferReader reader(writer.data());
  std::string s;
  EXPECT_FALSE(reader.ReadString(&s));
}

// --- Threading ----------------------------------------------------------

TEST(ThreadingTest, CyclicBarrierReleasesAllAndElectsOneWinner) {
  constexpr int kParties = 8;
  CyclicBarrier barrier(kParties);
  std::atomic<int> winners{0};
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kParties; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        arrived.fetch_add(1);
        if (barrier.Await()) winners.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(arrived.load(), kParties * 50);
  EXPECT_EQ(winners.load(), 50);  // exactly one winner per generation
}

TEST(ThreadingTest, CountDownLatchBlocksUntilZero) {
  CountDownLatch latch(3);
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    latch.Wait();
    released.store(true);
  });
  latch.CountDown();
  latch.CountDown();
  EXPECT_FALSE(released.load());
  latch.CountDown();
  waiter.join();
  EXPECT_TRUE(released.load());
}

TEST(ThreadingTest, ThreadPoolRunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&] { ran.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 1000);
  pool.Shutdown();
}

TEST(ThreadingTest, ThreadPoolWaitIdleReusable) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 50; ++i) pool.Submit([&] { ran.fetch_add(1); });
    pool.WaitIdle();
    EXPECT_EQ(ran.load(), (round + 1) * 50);
  }
}

TEST(ThreadingTest, OnePerCpuPoolPinsEachThreadToItsOwnCpu) {
  cpu_set_t mask;
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  const int cpus = AffinityCpuCount();
  ASSERT_EQ(cpus, CPU_COUNT(&mask));
  ThreadPool pool(cpus, ThreadPool::Placement::kOnePerCpu);
  // Each task holds its thread until all have started, so every thread
  // runs exactly one and reports its own affinity.
  CountDownLatch started(cpus);
  std::vector<cpu_set_t> pinned(cpus);
  for (int i = 0; i < cpus; ++i) {
    pool.Submit([&, i] {
      EXPECT_EQ(sched_getaffinity(0, sizeof(pinned[i]), &pinned[i]), 0);
      started.CountDown();
      started.Wait();
    });
  }
  pool.WaitIdle();
  cpu_set_t seen;
  CPU_ZERO(&seen);
  for (const cpu_set_t& one : pinned) {
    EXPECT_EQ(CPU_COUNT(&one), 1);
    CPU_OR(&seen, &seen, &one);
  }
  EXPECT_TRUE(CPU_EQUAL(&seen, &mask));
}

TEST(ThreadingTest, ShutdownDrainsQueue) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 100; ++i) pool.Submit([&] { ran.fetch_add(1); });
    pool.Shutdown();
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.ElapsedMillis(), 15.0);
  EXPECT_GE(timer.ElapsedMicros(), 15000);
  timer.Restart();
  EXPECT_LT(timer.ElapsedMillis(), 15.0);
}

}  // namespace
}  // namespace serigraph
