// Microbenchmarks for the sharded message store: append / swap /
// consume throughput with and without a combiner, single-threaded and
// with concurrent appenders, isolating the per-message cost of the path
// that Context::SendTo and remote-batch delivery ride on.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "pregel/message_store.h"

namespace serigraph {
namespace {

double Sum(const double& a, const double& b) { return a + b; }

/// Thread arms of the concurrent-append cells: 1 and 4 everywhere, 32
/// only where the box has 32 hardware threads. On fewer cores 32
/// appenders time the OS scheduler, not the store (2-16 us per
/// iteration on a 4-vCPU host, depending on what else runs).
void ConcurrentArms(benchmark::internal::Benchmark* b) {
  b->Threads(1)->Threads(4);
  if (std::thread::hardware_concurrency() >= 32) b->Threads(32);
}

/// Full BSP cycle for one partition: append `range(0)` messages to each
/// of 1024 vertices, publish at the barrier, consume every span.
void BM_StoreBspCycle(benchmark::State& state) {
  constexpr int32_t kVertices = 1024;
  const int msgs_per_vertex = static_cast<int>(state.range(0));
  MessageStore<double> store;
  store.Init(kVertices, /*double_buffered=*/true, /*combine=*/nullptr);
  std::vector<double> scratch;
  double sink = 0.0;
  for (auto _ : state) {
    for (int m = 0; m < msgs_per_vertex; ++m) {
      for (int32_t li = 0; li < kVertices; ++li) {
        store.Append(li, static_cast<double>(m));
      }
    }
    store.Swap();
    for (int32_t li = 0; li < kVertices; ++li) {
      for (double v : store.Consume(li, &scratch)) sink += v;
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kVertices * msgs_per_vertex);
}
BENCHMARK(BM_StoreBspCycle)->Arg(1)->Arg(8)->Arg(64);

/// Same cycle with a combiner: the store runs in dense accumulator mode,
/// one folded slot per vertex.
void BM_StoreBspCycleCombine(benchmark::State& state) {
  constexpr int32_t kVertices = 1024;
  const int msgs_per_vertex = static_cast<int>(state.range(0));
  MessageStore<double> store;
  store.Init(kVertices, /*double_buffered=*/true, &Sum);
  std::vector<double> scratch;
  double sink = 0.0;
  for (auto _ : state) {
    for (int m = 0; m < msgs_per_vertex; ++m) {
      for (int32_t li = 0; li < kVertices; ++li) {
        store.Append(li, static_cast<double>(m));
      }
    }
    store.Swap();
    for (int32_t li = 0; li < kVertices; ++li) {
      for (double v : store.Consume(li, &scratch)) sink += v;
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kVertices * msgs_per_vertex);
}
BENCHMARK(BM_StoreBspCycleCombine)->Arg(8)->Arg(64);

/// Remote-batch delivery: decoded records pre-grouped by shard, one lock
/// acquisition per shard per batch.
void BM_StoreAppendBatch(benchmark::State& state) {
  constexpr int32_t kVertices = 4096;
  const int batch = static_cast<int>(state.range(0));
  MessageStore<double> store;
  store.Init(kVertices, /*double_buffered=*/true, /*combine=*/nullptr);
  std::vector<double> scratch;
  std::vector<std::pair<int32_t, double>> records(batch);
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      records[i] = {static_cast<int32_t>((i * 17) % kVertices),
                    static_cast<double>(i)};
    }
    store.AppendBatch(std::span(records));
    store.Swap();
    for (int32_t li = 0; li < kVertices; ++li) {
      benchmark::DoNotOptimize(store.Consume(li, &scratch));
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_StoreAppendBatch)->Arg(256)->Arg(4096);

/// AP fan-in: `range(0)` messages for each of 8192 vertices, appended
/// round-robin over a scattered vertex order (each vertex's inbox grows
/// interleaved with every other's, as AP sends arrive), then every
/// vertex consumed once — the per-execution consume of an AP program
/// without a combiner. Items are messages.
void BM_StoreApFanIn(benchmark::State& state) {
  constexpr int32_t kVertices = 8192;
  const int msgs_per_vertex = static_cast<int>(state.range(0));
  MessageStore<double> store;
  store.Init(kVertices, /*double_buffered=*/false, /*combine=*/nullptr);
  std::vector<int32_t> order(kVertices);
  for (int32_t i = 0; i < kVertices; ++i) {
    order[i] = (i * 5167) & (kVertices - 1);  // odd multiplier: a bijection
  }
  std::vector<double> scratch;
  double sink = 0.0;
  for (auto _ : state) {
    for (int m = 0; m < msgs_per_vertex; ++m) {
      for (int32_t li : order) store.Append(li, static_cast<double>(m));
    }
    for (int32_t li = 0; li < kVertices; ++li) {
      for (double v : store.Consume(li, &scratch)) sink += v;
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kVertices * msgs_per_vertex);
}
BENCHMARK(BM_StoreApFanIn)->Arg(8)->Arg(35);

/// Concurrent appenders, AP (direct) mode: each thread owns a stripe of
/// 64 vertices interleaved across every shard, appends a burst and
/// consumes it back (steady-state inbox reuse, no growth).
void BM_StoreConcurrentAppend(benchmark::State& state) {
  constexpr int32_t kPerThread = 64;
  static MessageStore<double>* store = nullptr;
  if (state.thread_index() == 0) {
    store = new MessageStore<double>();
    store->Init(kPerThread * state.threads(), /*double_buffered=*/false,
                /*combine=*/nullptr, /*shard_hint=*/16);
  }
  const int32_t base = kPerThread * state.thread_index();
  std::vector<double> scratch;
  for (auto _ : state) {
    for (int32_t k = 0; k < kPerThread; ++k) {
      store->Append(base + k, static_cast<double>(k));
    }
    for (int32_t k = 0; k < kPerThread; ++k) {
      benchmark::DoNotOptimize(store->Consume(base + k, &scratch));
    }
  }
  state.SetItemsProcessed(state.iterations() * kPerThread);
  if (state.thread_index() == 0) {
    delete store;
    store = nullptr;
  }
}
BENCHMARK(BM_StoreConcurrentAppend)->Apply(ConcurrentArms);

/// Concurrent appenders all folding into the same 256 hot vertices via
/// the combiner — the worst-case shard-lock contention pattern, bounded
/// memory because every vertex folds into one dense accumulator.
void BM_StoreConcurrentAppendCombine(benchmark::State& state) {
  constexpr int32_t kVertices = 256;
  static MessageStore<double>* store = nullptr;
  if (state.thread_index() == 0) {
    store = new MessageStore<double>();
    store->Init(kVertices, /*double_buffered=*/true, &Sum,
                /*shard_hint=*/16);
  }
  int32_t li = state.thread_index();
  for (auto _ : state) {
    store->Append(li & (kVertices - 1), 1.0);
    ++li;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete store;
    store = nullptr;
  }
}
BENCHMARK(BM_StoreConcurrentAppendCombine)->Apply(ConcurrentArms);

/// Sender-side combining map: fold a stream of messages over `range(0)`
/// distinct destinations, then drain (one engine flush).
void BM_CombiningMapFold(benchmark::State& state) {
  const int64_t keys = state.range(0);
  constexpr int64_t kStream = 4096;
  CombiningMap<double> map;
  std::vector<std::pair<VertexId, double>> staging;
  for (auto _ : state) {
    for (int64_t i = 0; i < kStream; ++i) {
      map.Fold((i * 131) % keys, 1.0, &Sum);
    }
    map.Drain(&staging);
    benchmark::DoNotOptimize(staging.data());
  }
  state.SetItemsProcessed(state.iterations() * kStream);
}
BENCHMARK(BM_CombiningMapFold)->Arg(64)->Arg(4096);

}  // namespace
}  // namespace serigraph

#include "micro_main.h"
