// Microbenchmarks for the history recorder and checker (src/verify) on
// the coloring-audit workload's graph shape: TW', 32k vertices,
// undirected. BM_RecordTxn times the transaction hooks (begin, which
// logs the read set, and end), BM_Deliver the per-message delivery hook,
// and BM_CheckHistory the C1/C2/1SR check of a two-sweep history (about
// as many transactions as one coloring-audit job records): /clean is a
// correct run's history, which the one-pass proof decides; /stale has
// BSP-style stale reads, so it runs the exact passes.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/logging.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "harness/datasets.h"
#include "verify/history.h"

namespace serigraph {
namespace {

constexpr VertexId kVertices = 32000;
constexpr int kWorkers = 2;

const Graph& AuditGraph() {
  static const Graph* graph = [] {
    uint64_t seed = kVertices;
    const DatasetSpec spec = FindSpec("TW'");
    StatusOr<Graph> g = Graph::FromEdgeList(PowerLawChungLu(
        kVertices, spec.avg_degree, spec.gamma, SplitMix64(&seed)));
    SG_CHECK_OK(g.status());
    return new Graph(g->Undirected());
  }();
  return *graph;
}

/// One sweep of one execution per vertex, worker v % kWorkers, each
/// publishing and delivering its write over every out-edge: before it
/// ends (a serial AP run, fresh reads) or, when `stale`, only after the
/// whole sweep (BSP visibility: reads of vertices earlier in the sweep
/// are stale).
void RecordSweep(HistoryRecorder& recorder, const Graph& g, int superstep,
                 bool stale) {
  const VertexId n = g.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    const HistoryRecorder::Txn txn =
        recorder.OnTxnBegin(static_cast<WorkerId>(v % kWorkers), v, superstep);
    if (!stale) {
      for (const uint32_t e : recorder.ProvenanceOfOutEdges(v)) {
        recorder.OnDeliver(e, txn.version);
      }
    }
    recorder.OnTxnEnd(txn, true);
  }
  if (stale) {
    for (VertexId v = 0; v < n; ++v) {
      for (const uint32_t e : recorder.ProvenanceOfOutEdges(v)) {
        recorder.OnDeliver(e, recorder.VersionOf(v));
      }
    }
  }
}

/// OnTxnBegin + OnTxnEnd for every vertex once per iteration; items are
/// the reads logged. The log is rolled back between iterations (not
/// timed), so it never outgrows one sweep.
void BM_RecordTxn(benchmark::State& state) {
  const Graph& g = AuditGraph();
  HistoryRecorder recorder(&g, kWorkers);
  const HistoryRecorder::Snapshot empty = recorder.TakeSnapshot();
  for (auto _ : state) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      recorder.OnTxnEnd(
          recorder.OnTxnBegin(static_cast<WorkerId>(v % kWorkers), v, 0),
          true);
    }
    state.PauseTiming();
    recorder.RestoreSnapshot(empty);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_RecordTxn)->Unit(benchmark::kMillisecond);

/// One delivery over every edge per iteration, in broadcast order (each
/// vertex's out-edges by position), at a rising version; items are the
/// deliveries.
void BM_Deliver(benchmark::State& state) {
  const Graph& g = AuditGraph();
  HistoryRecorder recorder(&g, kWorkers);
  uint32_t version = 0;
  for (auto _ : state) {
    ++version;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (const uint32_t e : recorder.ProvenanceOfOutEdges(v)) {
        recorder.OnDeliver(e, version);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_Deliver)->Unit(benchmark::kMillisecond);

/// CheckHistory over a two-sweep history; items are the reads checked.
void BM_CheckHistory(benchmark::State& state, bool stale) {
  const Graph& g = AuditGraph();
  HistoryRecorder recorder(&g, kWorkers);
  RecordSweep(recorder, g, 0, stale);
  RecordSweep(recorder, g, 1, stale);
  const History history = recorder.TakeRecords();
  const HistoryCheck probe = CheckHistory(g, history);
  SG_CHECK(probe.ok() != stale);
  for (auto _ : state) {
    HistoryCheck check = CheckHistory(g, history);
    benchmark::DoNotOptimize(check);
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
}
BENCHMARK_CAPTURE(BM_CheckHistory, clean, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CheckHistory, stale, true)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace serigraph

#include "micro_main.h"
