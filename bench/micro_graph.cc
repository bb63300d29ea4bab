// Microbenchmarks for graph set-up (src/graph): Chung-Lu sampling, the
// CSR build, the undirected closure and the boundary classification
// token passing reads, at 20k and the benchmark's 160k vertices. Graphs
// take the shapes of the two BENCHMARK.json workloads: UK' (pagerank-bsp,
// directed) for sampling and the build, TW' (coloring-audit, undirected,
// 2 workers x 2 partitions) for the closure and BoundaryInfo.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/logging.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/partitioning.h"
#include "harness/datasets.h"

namespace serigraph {
namespace {

/// Seeds derive from the vertex count, so each size draws its own
/// graphs but every run draws the same ones.
uint64_t SeedFor(const benchmark::State& state) {
  uint64_t s = static_cast<uint64_t>(state.range(0));
  return SplitMix64(&s);
}

EdgeList Draw(const char* shape, VertexId n, uint64_t seed) {
  const DatasetSpec spec = FindSpec(shape);
  return PowerLawChungLu(n, spec.avg_degree, spec.gamma, seed);
}

Graph Build(const EdgeList& el) {
  StatusOr<Graph> g = Graph::FromEdgeList(el);
  SG_CHECK_OK(g.status());
  return std::move(g).value();
}

/// One UK'-shaped edge list per iteration, a fresh seed each time.
void BM_PowerLawChungLu(benchmark::State& state) {
  uint64_t seed = SeedFor(state);
  int64_t edges = 0;
  for (auto _ : state) {
    EdgeList el = Draw("UK'", state.range(0), SplitMix64(&seed));
    edges += static_cast<int64_t>(el.edges.size());
    benchmark::DoNotOptimize(el.edges.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(edges);
}
BENCHMARK(BM_PowerLawChungLu)->Arg(20000)->Arg(160000)
    ->Unit(benchmark::kMillisecond);

/// The CSR build (both directions) of one UK'-shaped edge list.
void BM_FromEdgeList(benchmark::State& state) {
  const EdgeList el = Draw("UK'", state.range(0), SeedFor(state));
  for (auto _ : state) {
    StatusOr<Graph> g = Graph::FromEdgeList(el);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(el.edges.size()));
}
BENCHMARK(BM_FromEdgeList)->Arg(20000)->Arg(160000)
    ->Unit(benchmark::kMillisecond);

/// The undirected closure of one TW'-shaped graph.
void BM_Undirected(benchmark::State& state) {
  const Graph g = Build(Draw("TW'", state.range(0), SeedFor(state)));
  for (auto _ : state) {
    Graph closure = g.Undirected();
    benchmark::DoNotOptimize(closure);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_Undirected)->Arg(20000)->Arg(160000)
    ->Unit(benchmark::kMillisecond);

/// Boundary classes of a TW'-shaped undirected graph, hash-partitioned
/// as coloring-audit runs it.
void BM_BoundaryInfo(benchmark::State& state) {
  const uint64_t seed = SeedFor(state);
  const Graph g = Build(Draw("TW'", state.range(0), seed)).Undirected();
  const Partitioning p = Partitioning::Hash(g.num_vertices(), 2, 2, seed);
  for (auto _ : state) {
    BoundaryInfo info(g, p);
    benchmark::DoNotOptimize(info);
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_BoundaryInfo)->Arg(20000)->Arg(160000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace serigraph

#include "micro_main.h"
