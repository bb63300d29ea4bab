// Unit tests for the sharded message store: shard striping, BSP swap
// visibility and leftover merging, inbox capacity reuse across
// supersteps, combiner folding, batch delivery order, and concurrent
// append (the TSan run exercises the shard locking for real).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "pregel/message_store.h"

namespace serigraph {
namespace {

int64_t MinCombine(const int64_t& a, const int64_t& b) {
  return std::min(a, b);
}

std::vector<int64_t> Drain(MessageStore<int64_t>& store, int32_t li) {
  std::vector<int64_t> scratch;
  auto span = store.Consume(li, &scratch);
  return std::vector<int64_t>(span.begin(), span.end());
}

TEST(MessageStoreTest, ShardCountIsPowerOfTwoAndBounded) {
  EXPECT_EQ(PickMessageStoreShards(0), 1);
  EXPECT_EQ(PickMessageStoreShards(1), 1);
  for (int64_t n : {1, 7, 31, 32, 100, 1000, 100000}) {
    const int s = PickMessageStoreShards(n);
    EXPECT_GE(s, 1);
    EXPECT_LE(s, 16);
    EXPECT_EQ(s & (s - 1), 0) << "n=" << n << " shards=" << s;
  }
}

TEST(MessageStoreTest, EmptyOneAndManyMessageVertices) {
  for (bool bsp : {true, false}) {
    MessageStore<int64_t> store;
    store.Init(10, bsp, nullptr, /*shard_hint=*/4);
    store.Append(3, 42);
    for (int64_t i = 0; i < 100; ++i) store.Append(7, i);
    if (bsp) store.Swap();

    EXPECT_FALSE(store.HasMessages(0));
    EXPECT_TRUE(store.HasMessages(3));
    EXPECT_TRUE(store.HasMessages(7));
    EXPECT_EQ(store.pending(), 2);

    EXPECT_TRUE(Drain(store, 0).empty());
    EXPECT_EQ(Drain(store, 3), std::vector<int64_t>{42});
    std::vector<int64_t> many = Drain(store, 7);
    ASSERT_EQ(many.size(), 100u);
    // FIFO per vertex, across inbox growth.
    for (int64_t i = 0; i < 100; ++i) EXPECT_EQ(many[i], i);
    EXPECT_EQ(store.pending(), 0);
    EXPECT_FALSE(store.HasMessages(7));
  }
}

TEST(MessageStoreTest, ShardStripingKeepsVerticesSeparate) {
  MessageStore<int64_t> store;
  store.Init(64, /*double_buffered=*/false, nullptr, /*shard_hint=*/8);
  EXPECT_EQ(store.num_shards(), 8);
  // Vertices 0..7 map to the 8 distinct shards; 8..15 share them.
  for (int32_t li = 0; li < 16; ++li) store.Append(li, li * 10);
  for (int32_t li = 0; li < 16; ++li) {
    EXPECT_EQ(Drain(store, li), std::vector<int64_t>{li * 10}) << li;
  }
  EXPECT_TRUE(Drain(store, 16).empty());
}

TEST(MessageStoreTest, BspArrivalsInvisibleUntilSwap) {
  MessageStore<int64_t> store;
  store.Init(4, /*double_buffered=*/true, nullptr);
  store.Append(1, 5);
  EXPECT_FALSE(store.HasMessages(1));
  EXPECT_EQ(store.pending(), 0);
  store.Swap();
  EXPECT_TRUE(store.HasMessages(1));
  EXPECT_EQ(store.pending(), 1);
  // New arrivals after the swap stay invisible again.
  store.Append(2, 6);
  EXPECT_FALSE(store.HasMessages(2));
  EXPECT_EQ(Drain(store, 1), std::vector<int64_t>{5});
}

TEST(MessageStoreTest, SwapMergesUnconsumedLeftoversBeforeNewArrivals) {
  MessageStore<int64_t> store;
  store.Init(4, /*double_buffered=*/true, nullptr);
  store.Append(2, 1);
  store.Append(2, 2);
  store.Swap();
  // Not consumed: the constrained-BSP sub-superstep path leaves visible
  // messages behind for ineligible vertices.
  store.Append(2, 3);
  store.Swap();
  EXPECT_EQ(Drain(store, 2), (std::vector<int64_t>{1, 2, 3}));
}

TEST(MessageStoreTest, CombinerFoldsOnAppendAndAcrossSwapLeftovers) {
  MessageStore<int64_t> store;
  store.Init(4, /*double_buffered=*/true, &MinCombine);
  store.Append(0, 9);
  store.Append(0, 4);
  store.Append(0, 7);
  store.Swap();
  EXPECT_EQ(Drain(store, 0), std::vector<int64_t>{4});

  store.Append(1, 8);
  store.Swap();
  store.Append(1, 3);  // folds into the unconsumed leftover at the next swap
  store.Swap();
  EXPECT_EQ(Drain(store, 1), std::vector<int64_t>{3});
  // Folding happens in the accumulators; no inbox is ever allocated.
  EXPECT_EQ(store.Stats().chunks, 0);
}

TEST(MessageStoreTest, ApDirectModeIsImmediatelyVisible) {
  MessageStore<int64_t> store;
  store.Init(8, /*double_buffered=*/false, &MinCombine);
  EXPECT_EQ(store.pending(), 0);
  store.Append(5, 20);
  store.Append(5, 10);
  EXPECT_TRUE(store.HasMessages(5));
  EXPECT_EQ(store.pending(), 1);
  EXPECT_EQ(Drain(store, 5), std::vector<int64_t>{10});
  // Consume restarts the chain; a later append re-arms pending.
  store.Append(5, 30);
  EXPECT_EQ(store.pending(), 1);
  EXPECT_EQ(Drain(store, 5), std::vector<int64_t>{30});
}

TEST(MessageStoreTest, AppendBatchMatchesIndividualAppends) {
  MessageStore<int64_t> batched, individual;
  batched.Init(32, /*double_buffered=*/true, nullptr, /*shard_hint=*/4);
  individual.Init(32, /*double_buffered=*/true, nullptr, /*shard_hint=*/4);
  std::vector<std::pair<int32_t, int64_t>> records;
  for (int i = 0; i < 200; ++i) {
    records.emplace_back(static_cast<int32_t>((i * 7) % 32), i);
  }
  for (const auto& [li, msg] : records) individual.Append(li, msg);
  batched.AppendBatch(std::span(records));
  batched.Swap();
  individual.Swap();
  for (int32_t li = 0; li < 32; ++li) {
    std::vector<int64_t> a = Drain(batched, li);
    std::vector<int64_t> b = Drain(individual, li);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "li=" << li;
  }
}

TEST(MessageStoreTest, AppendBatchKeepsVertexOrderAcrossShards) {
  // 64 vertices over 16 shards (4 per shard); the records cycle through
  // all 16 shards in descending shard order, so grouping by shard
  // reorders nearly every neighboring pair — but never two records of
  // one vertex.
  constexpr int32_t kVertices = 64;
  for (bool bsp : {true, false}) {
    MessageStore<int64_t> store;
    store.Init(kVertices, bsp, nullptr, /*shard_hint=*/16);
    ASSERT_EQ(store.num_shards(), 16);
    std::vector<std::pair<int32_t, int64_t>> records;
    std::vector<std::vector<int64_t>> expected(kVertices);
    for (int64_t i = 0; i < 16 * 40; ++i) {
      const int32_t shard = 15 - static_cast<int32_t>(i % 16);
      const int32_t li = shard + 16 * static_cast<int32_t>((i / 16) % 4);
      records.emplace_back(li, i);
      expected[li].push_back(i);
    }
    store.AppendBatch(std::span(records));
    if (bsp) store.Swap();
    for (int32_t li = 0; li < kVertices; ++li) {
      EXPECT_EQ(Drain(store, li), expected[li]) << "bsp=" << bsp << " li=" << li;
    }
  }
}

TEST(MessageStoreTest, ApInterleavedSendersKeepSendOrder) {
  // Two senders append interleaved runs to the same vertices while a
  // consumer drains them: every consume must return each sender's
  // messages in send order, with none lost or duplicated.
  constexpr int32_t kVertices = 32;
  constexpr int kRuns = 4000;
  constexpr int kRunLen = 3;
  MessageStore<int64_t> store;
  store.Init(kVertices, /*double_buffered=*/false, nullptr, /*shard_hint=*/4);
  std::atomic<int> done{0};
  std::vector<std::thread> senders;
  for (int64_t t = 0; t < 2; ++t) {
    senders.emplace_back([&store, &done, t] {
      std::vector<int64_t> seq(kVertices, 0);
      for (int run = 0; run < kRuns; ++run) {
        const int32_t li = static_cast<int32_t>((run * 7 + t) % kVertices);
        for (int k = 0; k < kRunLen; ++k) {
          store.Append(li, (t << 32) | seq[li]++);
        }
      }
      done.fetch_add(1);
    });
  }
  // next[t][li]: the sequence number sender t's next message must carry.
  std::vector<std::vector<int64_t>> next(2, std::vector<int64_t>(kVertices));
  std::vector<int64_t> scratch;
  auto drain_all = [&] {
    for (int32_t li = 0; li < kVertices; ++li) {
      for (int64_t m : store.Consume(li, &scratch)) {
        const int64_t t = m >> 32;
        ASSERT_EQ(m & 0xffffffff, next[t][li]) << "sender " << t << " li=" << li;
        ++next[t][li];
      }
    }
  };
  while (done.load() < 2) drain_all();
  for (auto& th : senders) th.join();
  drain_all();
  int64_t total = 0;
  for (const auto& per_sender : next) {
    for (int64_t n : per_sender) total += n;
  }
  EXPECT_EQ(total, 2 * kRuns * kRunLen);
  EXPECT_EQ(store.pending(), 0);
}

TEST(MessageStoreDeathTest, InitRejectsMoreThan64Shards) {
  // AppendBatch's per-shard tables hold 64 entries.
  MessageStore<int64_t> store;
  EXPECT_DEATH(store.Init(256, /*double_buffered=*/false, nullptr,
                          /*shard_hint=*/128),
               "Check failed");
  EXPECT_DEATH(store.Init(256, /*double_buffered=*/true, nullptr,
                          /*shard_hint=*/65),
               "Check failed");
  store.Init(256, /*double_buffered=*/false, nullptr, /*shard_hint=*/64);
  EXPECT_EQ(store.num_shards(), 64);
}

TEST(MessageStoreTest, InboxCapacityPlateausAcrossRounds) {
  // Inboxes are cleared, never freed: after the first of 10 identical
  // rounds the total inbox capacity stays put. Consume hands out the
  // stored buffer itself (BSP: the flat buffer, AP: the inbox) — the
  // span starts where the visible walk saw the first message, so
  // nothing is copied into a fresh vector.
  for (bool bsp : {true, false}) {
    MessageStore<int64_t> store;
    store.Init(256, bsp, nullptr, /*shard_hint=*/4);
    std::vector<int64_t> scratch;
    int64_t after_first = 0;
    for (int round = 0; round < 10; ++round) {
      for (int32_t li = 0; li < 256; ++li) {
        for (int m = 0; m < 10; ++m) store.Append(li, li + m);
      }
      if (bsp) store.Swap();
      const int64_t capacity = store.Stats().node_capacity;
      if (round == 0) after_first = capacity;
      EXPECT_EQ(capacity, after_first) << "bsp=" << bsp << " round=" << round;
      for (int32_t li = 0; li < 256; ++li) {
        const int64_t* first = nullptr;
        store.ForEachVisible(li, [&](const int64_t& m) {
          if (first == nullptr) first = &m;
        });
        const std::span<const int64_t> span = store.Consume(li, &scratch);
        ASSERT_EQ(span.size(), 10u);
        EXPECT_EQ(span.data(), first) << "bsp=" << bsp << " li=" << li;
      }
    }
    EXPECT_GE(after_first, 256 * 10);
  }
}

TEST(MessageStoreTest, VisibleCountAndWalkMatchConsume) {
  MessageStore<int64_t> store;
  store.Init(8, /*double_buffered=*/true, nullptr);
  store.Append(2, 7);
  store.Append(2, 8);
  store.Swap();
  EXPECT_EQ(store.VisibleCount(2), 2);
  std::vector<int64_t> walked;
  store.ForEachVisible(2, [&](const int64_t& m) { walked.push_back(m); });
  EXPECT_EQ(walked, (std::vector<int64_t>{7, 8}));
  EXPECT_EQ(Drain(store, 2), walked);
}

TEST(MessageStoreTest, ConcurrentAppendIsLinearizablePerVertex) {
  // 8 threads hammer 64 vertices through 4 shards; TSan validates the
  // locking, the assertions validate nothing is lost or duplicated.
  constexpr int kThreads = 8;
  constexpr int32_t kVertices = 64;
  constexpr int kPerThread = 500;
  for (bool bsp : {true, false}) {
    MessageStore<int64_t> store;
    store.Init(kVertices, bsp, nullptr, /*shard_hint=*/4);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&store, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const int32_t li = static_cast<int32_t>((t * 31 + i) % kVertices);
          store.Append(li, t * 1000000 + i);
        }
      });
    }
    for (auto& th : threads) th.join();
    if (bsp) store.Swap();
    int64_t total = 0;
    std::vector<bool> seen(kThreads * 1000000 + kPerThread, false);
    for (int32_t li = 0; li < kVertices; ++li) {
      for (int64_t m : Drain(store, li)) {
        ASSERT_FALSE(seen[m]) << "duplicate message " << m;
        seen[m] = true;
        ++total;
      }
    }
    EXPECT_EQ(total, kThreads * kPerThread);
  }
}

TEST(MessageStoreTest, ConcurrentCombineFoldsInPlace) {
  constexpr int kThreads = 8;
  MessageStore<int64_t> store;
  store.Init(16, /*double_buffered=*/false, &MinCombine, /*shard_hint=*/4);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < 2000; ++i) {
        store.Append(i % 16, 100 + ((t * 7 + i) % 900));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int32_t li = 0; li < 16; ++li) {
    EXPECT_EQ(store.VisibleCount(li), 1);
    std::vector<int64_t> v = Drain(store, li);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_GE(v[0], 100);
    EXPECT_LT(v[0], 1000);
  }
  // A combinable store folds in place and allocates no inbox.
  const MessageStoreArenaStats stats = store.Stats();
  EXPECT_EQ(stats.chunks, 0);
  EXPECT_EQ(stats.node_capacity, 0);
}

TEST(CombiningMapTest, FoldsDuplicatesAndDrainsInInsertionOrder) {
  CombiningMap<int64_t> map;
  auto min = [](const int64_t& a, const int64_t& b) { return std::min(a, b); };
  EXPECT_TRUE(map.Fold(10, 5, min));
  EXPECT_TRUE(map.Fold(20, 9, min));
  EXPECT_FALSE(map.Fold(10, 3, min));
  EXPECT_FALSE(map.Fold(20, 11, min));
  EXPECT_EQ(map.size(), 2u);
  std::vector<std::pair<VertexId, int64_t>> out;
  map.Drain(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (std::pair<VertexId, int64_t>{10, 3}));
  EXPECT_EQ(out[1], (std::pair<VertexId, int64_t>{20, 9}));
  EXPECT_EQ(map.size(), 0u);
  // Reusable after a drain.
  EXPECT_TRUE(map.Fold(10, 1, min));
  map.Drain(&out);
  EXPECT_EQ(out[0], (std::pair<VertexId, int64_t>{10, 1}));
}

TEST(CombiningMapTest, GrowsPastInitialTable) {
  CombiningMap<int64_t> map;
  auto sum = [](const int64_t& a, const int64_t& b) { return a + b; };
  constexpr int64_t kKeys = 5000;  // > initial table of 1024
  for (int64_t round = 0; round < 2; ++round) {
    for (int64_t k = 0; k < kKeys; ++k) map.Fold(k * 3, 1, sum);
  }
  EXPECT_EQ(map.size(), static_cast<size_t>(kKeys));
  std::vector<std::pair<VertexId, int64_t>> out;
  map.Drain(&out);
  ASSERT_EQ(out.size(), static_cast<size_t>(kKeys));
  for (int64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(out[k].first, k * 3);
    EXPECT_EQ(out[k].second, 2);
  }
}

}  // namespace
}  // namespace serigraph
