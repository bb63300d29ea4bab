// Microbenchmarks for graph set-up (src/graph): Chung-Lu sampling, the
// CSR build, the undirected closure and the boundary classification
// token passing reads, at 20k and the benchmark's 160k vertices; and for
// the one graph read on the compute path, the pull gather over the
// in-lists. Graphs take the shapes of the two BENCHMARK.json workloads:
// UK' (pagerank-bsp, directed) for sampling, the build and the gather,
// TW' (coloring-audit, undirected, 2 workers x 2 partitions) for the
// closure and BoundaryInfo. The set-up cells rate by wall time: sampling
// and the build run on helper threads at these sizes, whose CPU time the
// main thread's clock would not count.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/bitmap.h"
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
    ->Unit(benchmark::kMillisecond)->UseRealTime();

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
    ->Unit(benchmark::kMillisecond)->UseRealTime();

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
    ->Unit(benchmark::kMillisecond)->UseRealTime();

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

/// One pull superstep's gather on the pagerank-bsp graph (UK', 160k
/// vertices, hash-partitioned 2 workers x 2 partitions), walked partition
/// by partition as the engine's workers walk them, on one thread. The
/// argument is the share of vertices, in percent, whose broadcast was
/// captured; a silent vertex's slot holds PageRank's combine identity.
/// The loop bodies are ExecuteVertexIfEligible's two folds, chosen as the
/// engine chooses them (every slot once captures cover half the edges).
/// Items are in-edges folded.
void BM_PullGather(benchmark::State& state) {
  const uint64_t seed = SeedFor(state);
  const Graph g = Build(Draw("UK'", 160000, seed));
  const Partitioning p = Partitioning::Hash(g.num_vertices(), 2, 2, seed);
  const VertexId n = g.num_vertices();
  std::vector<double> vals(static_cast<size_t>(n), 0.0);
  Bitmap bits(static_cast<size_t>(n));
  Rng rng(seed);
  int64_t captured_edges = 0;
  for (VertexId u = 0; u < n; ++u) {
    if (rng.Uniform(100) < static_cast<uint64_t>(state.range(0))) {
      bits.Set(static_cast<size_t>(u));
      vals[u] = rng.NextDouble();
      captured_edges += g.OutDegree(u);
    }
  }
  const bool every_slot = captured_edges * 2 >= g.num_edges();
  std::vector<double> gathered(static_cast<size_t>(n), 0.0);
  for (auto _ : state) {
    for (PartitionId part = 0; part < p.num_partitions(); ++part) {
      for (VertexId v : p.VerticesOfPartition(part)) {
        bool have = false;
        double folded = 0.0;
        if (every_slot) {
          for (VertexId u : g.InNeighbors(v)) {
            folded = folded + vals[u];
            have |= bits.Test(static_cast<size_t>(u));
          }
        } else {
          for (VertexId u : g.InNeighbors(v)) {
            if (!bits.Test(static_cast<size_t>(u))) continue;
            folded = folded + vals[u];
            have = true;
          }
        }
        if (have) gathered[v] = folded;
      }
    }
    benchmark::DoNotOptimize(gathered.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_PullGather)->Arg(100)->Arg(30)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace serigraph

#include "micro_main.h"
