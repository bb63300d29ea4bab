#include "graph/graph.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/cdf_lookup.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "harness/datasets.h"

namespace serigraph {
namespace {

Graph Make(const EdgeList& el) {
  auto g = Graph::FromEdgeList(el);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

// Adjacency entries are 4 bytes in both directions.
static_assert(sizeof(Graph().OutNeighbors(0)[0]) == 4);
static_assert(sizeof(Graph().InNeighbors(0)[0]) == 4);

TEST(GraphTest, EmptyGraph) {
  Graph g = Make({0, {}});
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(GraphTest, BasicCsrStructure) {
  Graph g = Make({4, {{0, 1}, {0, 2}, {1, 2}, {3, 0}}});
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.OutDegree(0), 2);
  EXPECT_EQ(g.InDegree(2), 2);
  auto n0 = g.OutNeighbors(0);
  EXPECT_EQ(std::vector<VertexId>(n0.begin(), n0.end()),
            (std::vector<VertexId>{1, 2}));
  auto in0 = g.InNeighbors(0);
  EXPECT_EQ(std::vector<VertexId>(in0.begin(), in0.end()),
            (std::vector<VertexId>{3}));
}

TEST(GraphTest, DropsSelfLoopsAndDuplicates) {
  Graph g = Make({3, {{0, 0}, {0, 1}, {0, 1}, {1, 2}, {1, 2}, {2, 2}}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.OutDegree(0), 1);
  EXPECT_EQ(g.OutDegree(2), 0);
}

TEST(GraphTest, RejectsOutOfRangeEndpoints) {
  EXPECT_FALSE(Graph::FromEdgeList({2, {{0, 2}}}).ok());
  EXPECT_FALSE(Graph::FromEdgeList({2, {{-1, 0}}}).ok());
  EXPECT_FALSE(Graph::FromEdgeList({-1, {}}).ok());
}

TEST(GraphTest, RejectsMoreVerticesThanNeighborIdsHold) {
  // 2^31 vertices is the most 4-byte lists can name. The check comes
  // before any allocation: the offsets alone would take 16 GiB here.
  const StatusOr<Graph> g = Graph::FromEdgeList({(VertexId{1} << 31) + 1, {}});
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

/// Asserts that every in-list of `g` is its out-list, the same memory.
void ExpectListsStoredOnce(const Graph& g, const std::string& what) {
  ASSERT_GT(g.num_edges(), 0) << what;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(g.InNeighbors(v).data(), g.OutNeighbors(v).data())
        << what << ", v" << v;
    ASSERT_EQ(g.InNeighbors(v).size(), g.OutNeighbors(v).size())
        << what << ", v" << v;
    ASSERT_EQ(g.InDegree(v), g.OutDegree(v)) << what << ", v" << v;
  }
}

TEST(GraphTest, ClosureStoresItsListsOnce) {
  const Graph closure = Make(PowerLawChungLu(1000, 6.0, 2.2, 3)).Undirected();
  ExpectListsStoredOnce(closure, "closure");
  Graph clone = closure.Clone();
  ExpectListsStoredOnce(clone, "clone");
  EXPECT_EQ(clone.ToEdges(), closure.ToEdges());
  Graph moved(std::move(clone));
  ExpectListsStoredOnce(moved, "move-constructed");
  Graph assigned;
  assigned = std::move(moved);
  ExpectListsStoredOnce(assigned, "move-assigned");
}

TEST(GraphTest, UndirectedClosureIsSymmetric) {
  Graph g = Make({5, {{0, 1}, {1, 2}, {3, 4}, {4, 0}}});
  EXPECT_FALSE(g.IsSymmetric());
  Graph u = g.Undirected();
  EXPECT_TRUE(u.IsSymmetric());
  EXPECT_EQ(u.num_edges(), 8);
  for (VertexId v = 0; v < u.num_vertices(); ++v) {
    EXPECT_EQ(u.OutDegree(v), u.InDegree(v));
  }
}

TEST(GraphTest, CloneIsDeepAndEqual) {
  Graph g = Make({10, ErdosRenyi(10, 30, 1).edges});
  Graph c = g.Clone();
  EXPECT_EQ(c.num_vertices(), g.num_vertices());
  EXPECT_EQ(c.ToEdges(), g.ToEdges());
}

TEST(GraphTest, MaxDegrees) {
  // Star: center 0 has in+out degree 2*(n-1).
  Graph g = Make(Star(11));
  EXPECT_EQ(g.MaxTotalDegree(), 20);
  EXPECT_EQ(g.MaxOutDegree(), 10);
}

TEST(GraphTest, ToEdgesRoundTrip) {
  EdgeList el = ErdosRenyi(50, 200, 3);
  Graph g = Make(el);
  EdgeList rt{50, g.ToEdges()};
  Graph g2 = Make(rt);
  EXPECT_EQ(g.ToEdges(), g2.ToEdges());
}

TEST(GraphStatsTest, CountsMatchDefinition) {
  Graph g = Make({4, {{0, 1}, {1, 0}, {1, 2}, {2, 3}}});
  GraphStats stats = ComputeGraphStats(g, /*compute_undirected=*/true);
  EXPECT_EQ(stats.num_vertices, 4);
  EXPECT_EQ(stats.num_directed_edges, 4);
  // Undirected edges: {0,1}, {1,2}, {2,3} = 3.
  EXPECT_EQ(stats.num_undirected_edges, 3);
  EXPECT_EQ(stats.max_degree, 3);  // v1: out {0,2}, in {0}
}

TEST(HumanCountTest, Formats) {
  EXPECT_EQ(HumanCount(999), "999");
  EXPECT_EQ(HumanCount(3000000), "3.0M");
  EXPECT_EQ(HumanCount(1460000000), "1.46B");
  EXPECT_EQ(HumanCount(33000), "33.0K");
}

// --- generators -------------------------------------------------------

TEST(GeneratorsTest, RingStructure) {
  Graph g = Make(Ring(10));
  EXPECT_EQ(g.num_edges(), 10);
  for (VertexId v = 0; v < 10; ++v) {
    EXPECT_EQ(g.OutDegree(v), 1);
    EXPECT_EQ(g.OutNeighbors(v)[0], (v + 1) % 10);
  }
}

TEST(GeneratorsTest, GridStructure) {
  Graph g = Make(Grid(3, 4));
  EXPECT_EQ(g.num_vertices(), 12);
  EXPECT_TRUE(g.IsSymmetric());
  // Corner vertex 0 has degree 2; interior vertex (1,1)=5 has degree 4.
  EXPECT_EQ(g.OutDegree(0), 2);
  EXPECT_EQ(g.OutDegree(5), 4);
}

TEST(GeneratorsTest, CompleteHasAllPairs) {
  Graph g = Make(Complete(6));
  EXPECT_EQ(g.num_edges(), 30);
  EXPECT_TRUE(g.IsSymmetric());
}

TEST(GeneratorsTest, PathIsChain) {
  Graph g = Make(Path(5));
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.OutDegree(4), 0);
}

TEST(GeneratorsTest, ErdosRenyiDeterministicBySeed) {
  EdgeList a = ErdosRenyi(100, 500, 42);
  EdgeList b = ErdosRenyi(100, 500, 42);
  EdgeList c = ErdosRenyi(100, 500, 43);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_NE(a.edges, c.edges);
}

TEST(GeneratorsTest, PowerLawHasSkewedDegrees) {
  Graph g = Make(PowerLawChungLu(2000, 10.0, 2.2, 7));
  // Max degree should be far above the mean for a power-law graph.
  EXPECT_GT(g.MaxTotalDegree(), 10 * 10);
  EXPECT_GT(g.num_edges(), 2000 * 5);
}

TEST(GeneratorsTest, RMatSizes) {
  EdgeList el = RMat(/*scale=*/8, /*edge_factor=*/8, /*seed=*/5);
  EXPECT_EQ(el.num_vertices, 256);
  EXPECT_EQ(static_cast<int64_t>(el.edges.size()), 2048);
}

TEST(GeneratorsTest, PaperExampleIsTheFourCycle) {
  Graph g = Make(PaperExampleGraph());
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 8);
  EXPECT_TRUE(g.IsSymmetric());
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(g.OutDegree(v), 2);
  // v0 adjacent to v1 and v2, not v3.
  auto n = g.OutNeighbors(0);
  EXPECT_EQ(std::vector<VertexId>(n.begin(), n.end()),
            (std::vector<VertexId>{1, 2}));
}


// --- bit-identical set-up -----------------------------------------------
//
// The builder, the closure and the Chung-Lu sampler as they were before
// the counting sort, the merge and the guide table, kept verbatim as the
// oracles: the current code must produce the same arrays and the same
// edge lists, byte for byte, on every input.

/// The arrays of a graph as the oracle builder lays them out.
struct OracleGraph {
  VertexId num_vertices = 0;
  std::vector<int64_t> out_offsets;
  std::vector<VertexId> out_targets;
  std::vector<int64_t> in_offsets;
  std::vector<VertexId> in_sources;

  std::span<const VertexId> Out(VertexId v) const {
    return {out_targets.data() + out_offsets[v],
            out_targets.data() + out_offsets[v + 1]};
  }
  std::span<const VertexId> In(VertexId v) const {
    return {in_sources.data() + in_offsets[v],
            in_sources.data() + in_offsets[v + 1]};
  }
};

std::vector<Edge> OracleCanonicalize(std::vector<Edge> edges) {
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [](const Edge& e) { return e.src == e.dst; }),
              edges.end());
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

StatusOr<OracleGraph> OracleFromEdgeList(const EdgeList& edge_list) {
  const VertexId n = edge_list.num_vertices;
  if (n < 0) {
    return Status::InvalidArgument("negative vertex count");
  }
  for (const Edge& e : edge_list.edges) {
    if (e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n) {
      return Status::InvalidArgument(
          "edge endpoint out of range: (" + std::to_string(e.src) + "," +
          std::to_string(e.dst) + ") with n=" + std::to_string(n));
    }
  }
  std::vector<Edge> edges = OracleCanonicalize(edge_list.edges);

  OracleGraph g;
  g.num_vertices = n;
  g.out_offsets.assign(n + 1, 0);
  g.in_offsets.assign(n + 1, 0);
  for (const Edge& e : edges) {
    ++g.out_offsets[e.src + 1];
    ++g.in_offsets[e.dst + 1];
  }
  for (VertexId v = 0; v < n; ++v) {
    g.out_offsets[v + 1] += g.out_offsets[v];
    g.in_offsets[v + 1] += g.in_offsets[v];
  }
  g.out_targets.resize(edges.size());
  g.in_sources.resize(edges.size());
  std::vector<int64_t> out_cursor(g.out_offsets.begin(),
                                  g.out_offsets.end() - 1);
  std::vector<int64_t> in_cursor(g.in_offsets.begin(),
                                 g.in_offsets.end() - 1);
  for (const Edge& e : edges) {
    g.out_targets[out_cursor[e.src]++] = e.dst;
    g.in_sources[in_cursor[e.dst]++] = e.src;
  }
  return g;
}

OracleGraph OracleUndirected(const OracleGraph& g) {
  EdgeList el;
  el.num_vertices = g.num_vertices;
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    for (VertexId u : g.Out(v)) {
      el.edges.push_back({v, u});
      el.edges.push_back({u, v});
    }
  }
  StatusOr<OracleGraph> closure = OracleFromEdgeList(el);
  SG_CHECK(closure.ok());
  return std::move(closure).value();
}

EdgeList OraclePowerLawChungLu(VertexId num_vertices, double avg_degree,
                               double gamma, uint64_t seed) {
  Rng rng(seed);
  const double exponent = -1.0 / (gamma - 1.0);
  std::vector<double> weights(num_vertices);
  double total = 0.0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    weights[v] = std::pow(static_cast<double>(v + 1), exponent);
    total += weights[v];
  }
  std::vector<double> cdf(num_vertices);
  double acc = 0.0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    acc += weights[v] / total;
    cdf[v] = acc;
  }
  auto sample = [&]() -> VertexId {
    double u = rng.NextDouble();
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    if (it == cdf.end()) --it;
    return static_cast<VertexId>(it - cdf.begin());
  };
  const int64_t target_edges =
      static_cast<int64_t>(avg_degree * static_cast<double>(num_vertices));
  EdgeList el;
  el.num_vertices = num_vertices;
  el.edges.reserve(target_edges);
  while (static_cast<int64_t>(el.edges.size()) < target_edges) {
    VertexId src = sample();
    VertexId dst = sample();
    if (src == dst) continue;
    el.edges.push_back({src, dst});
  }
  return el;
}

/// Widens a list to VertexIds, so Graph's NeighborId lists compare
/// value for value against the oracle's VertexId lists.
template <typename Id>
std::vector<VertexId> ToVector(std::span<const Id> s) {
  return {s.begin(), s.end()};
}

/// Asserts that `g` holds exactly the oracle's arrays, and that every
/// neighbour list is strictly increasing (sorted, no duplicates).
void ExpectSameGraph(const Graph& g, const OracleGraph& want,
                     const std::string& what) {
  ASSERT_EQ(g.num_vertices(), want.num_vertices) << what;
  ASSERT_EQ(g.num_edges(), static_cast<int64_t>(want.out_targets.size()))
      << what;
  std::vector<Edge> want_edges;
  for (VertexId v = 0; v < want.num_vertices; ++v) {
    for (VertexId u : want.Out(v)) want_edges.push_back({v, u});
  }
  ASSERT_EQ(g.ToEdges(), want_edges) << what;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(ToVector(g.OutNeighbors(v)), ToVector(want.Out(v)))
        << what << ", out-list of v" << v;
    ASSERT_EQ(ToVector(g.InNeighbors(v)), ToVector(want.In(v)))
        << what << ", in-list of v" << v;
    for (auto nbrs : {g.OutNeighbors(v), g.InNeighbors(v)}) {
      ASSERT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end(),
                                     std::greater_equal<>()) == nbrs.end())
          << what << ", a list of v" << v << " is not strictly increasing";
    }
  }
}

/// Seeded edge lists covering what the builder must handle: empty lists,
/// lists of only self loops, heavy duplicates, isolated vertices, and
/// PowerLawChungLu and RMat draws.
std::vector<EdgeList> OracleInputs() {
  std::vector<EdgeList> inputs;
  Rng rng(20260418);
  for (const VertexId n : {0, 1, 2, 3, 17, 1000}) {
    inputs.push_back({n, {}});
    for (int rep = 0; rep < 100 && n > 0; ++rep) {
      EdgeList el{n, {}};
      const uint64_t un = static_cast<uint64_t>(n);
      const int64_t m = static_cast<int64_t>(rng.Uniform(4 * un + 1));
      switch (rep % 5) {
        case 0:  // uniform endpoints, self loops included
          for (int64_t i = 0; i < m; ++i) {
            el.edges.push_back({static_cast<VertexId>(rng.Uniform(un)),
                                static_cast<VertexId>(rng.Uniform(un))});
          }
          break;
        case 1:  // only self loops
          for (int64_t i = 0; i < m; ++i) {
            const auto v = static_cast<VertexId>(rng.Uniform(un));
            el.edges.push_back({v, v});
          }
          break;
        case 2: {  // heavy duplicates over a few endpoints
          const uint64_t pool = std::min<uint64_t>(un, 4);
          for (int64_t i = 0; i < 3 * m; ++i) {
            el.edges.push_back({static_cast<VertexId>(rng.Uniform(pool)),
                                static_cast<VertexId>(rng.Uniform(pool))});
          }
          break;
        }
        case 3:  // isolated vertices: only even ids take part
          for (int64_t i = 0; i < m; ++i) {
            el.edges.push_back(
                {static_cast<VertexId>(2 * rng.Uniform((un + 1) / 2)),
                 static_cast<VertexId>(2 * rng.Uniform((un + 1) / 2))});
          }
          break;
        case 4: {  // edges repeated one to four times, shuffled
          std::vector<Edge> base;
          for (int64_t i = 0; i < m / 3 + 1; ++i) {
            base.push_back({static_cast<VertexId>(rng.Uniform(un)),
                            static_cast<VertexId>(rng.Uniform(un))});
          }
          for (const Edge& e : base) {
            for (uint64_t r = rng.Uniform(4); r < 4; ++r) {
              el.edges.push_back(e);
            }
          }
          for (size_t i = el.edges.size(); i > 1; --i) {
            std::swap(el.edges[i - 1], el.edges[rng.Uniform(i)]);
          }
          break;
        }
      }
      inputs.push_back(std::move(el));
    }
  }
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (const VertexId n : {2, 3, 17, 1000}) {
      inputs.push_back(PowerLawChungLu(n, 6.0, 2.1 + 0.1 * seed, seed));
    }
    inputs.push_back(RMat(static_cast<int>(seed) + 4, 8, seed));
  }
  return inputs;
}

TEST(SetupIdentityTest, FromEdgeListMatchesSortingOracle) {
  const std::vector<EdgeList> inputs = OracleInputs();
  ASSERT_GE(inputs.size(), 500u);
  for (size_t i = 0; i < inputs.size(); ++i) {
    StatusOr<OracleGraph> want = OracleFromEdgeList(inputs[i]);
    ASSERT_TRUE(want.ok()) << "input " << i;
    StatusOr<Graph> got = Graph::FromEdgeList(inputs[i]);
    ASSERT_TRUE(got.ok()) << "input " << i << ": " << got.status();
    ExpectSameGraph(*got, *want, "input " + std::to_string(i));
  }
}

TEST(SetupIdentityTest, FromEdgeListRejectsWhatTheOracleRejects) {
  std::vector<EdgeList> inputs = OracleInputs();
  inputs.push_back({-1, {}});
  inputs.push_back({-3, {{0, 1}}});
  Rng rng(7);
  int rejected = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    EdgeList el = inputs[i];
    const VertexId n = el.num_vertices;
    if (n >= 0) {
      // One bad endpoint (or two), at a random position.
      const VertexId bad[] = {n, n + 5, -1, -n - 2};
      const Edge e{rng.Uniform(2) ? bad[rng.Uniform(4)] : 0,
                   rng.Uniform(2) ? bad[rng.Uniform(4)] : n};
      el.edges.insert(el.edges.begin() + static_cast<int64_t>(rng.Uniform(
                                             el.edges.size() + 1)),
                      e);
    }
    StatusOr<OracleGraph> want = OracleFromEdgeList(el);
    StatusOr<Graph> got = Graph::FromEdgeList(el);
    ASSERT_FALSE(want.ok()) << "input " << i;
    ASSERT_FALSE(got.ok()) << "input " << i;
    EXPECT_EQ(got.status().code(), want.status().code()) << "input " << i;
    EXPECT_EQ(got.status().message(), want.status().message())
        << "input " << i;
    ++rejected;
  }
  EXPECT_GE(rejected, 500);
}

TEST(SetupIdentityTest, UndirectedMatchesEdgeListClosure) {
  const std::vector<EdgeList> inputs = OracleInputs();
  for (size_t i = 0; i < inputs.size(); ++i) {
    const OracleGraph want = OracleUndirected(*OracleFromEdgeList(inputs[i]));
    const Graph got = Make(inputs[i]).Undirected();
    ExpectSameGraph(got, want, "closure of input " + std::to_string(i));
    EXPECT_TRUE(got.IsSymmetric());
  }
}

TEST(SetupIdentityTest, PowerLawChungLuMatchesBinarySearchSampler) {
  int compared = 0;
  for (const DatasetSpec& spec : StandInSpecs()) {
    for (const VertexId n : {2, 3, 16, 1000, 20000}) {
      for (const uint64_t seed : {spec.seed, uint64_t{1}, uint64_t{77}}) {
        const EdgeList want =
            OraclePowerLawChungLu(n, spec.avg_degree, spec.gamma, seed);
        const EdgeList got =
            PowerLawChungLu(n, spec.avg_degree, spec.gamma, seed);
        ASSERT_EQ(got.num_vertices, want.num_vertices);
        ASSERT_TRUE(got.edges == want.edges)
            << spec.name << " n=" << n << " seed=" << seed;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 4 * 5 * 3);
}

// --- the parallel set-up path ------------------------------------------
//
// PowerLawChungLu samples chunks of candidates on several threads once a
// draw reaches a few chunks, and FromEdgeList splits its passes once an
// input reaches Graph::kParallelBuildMinEdges edges; the inputs above
// stay below both cutoffs. These run the benchmark's size, where both
// paths start threads on a multi-CPU host, and compare with the same
// oracles.

/// Asserts that `g` holds the oracle's lists, comparing in place (no
/// edge vectors: the benchmark-sized graphs hold 4M edges).
void ExpectSameLists(const Graph& g, const OracleGraph& want,
                     const std::string& what) {
  ASSERT_EQ(g.num_vertices(), want.num_vertices) << what;
  ASSERT_EQ(g.num_edges(), static_cast<int64_t>(want.out_targets.size()))
      << what;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto out = g.OutNeighbors(v);
    const auto in = g.InNeighbors(v);
    ASSERT_TRUE(std::equal(out.begin(), out.end(), want.Out(v).begin(),
                           want.Out(v).end()))
        << what << ", out-list of v" << v;
    ASSERT_TRUE(std::equal(in.begin(), in.end(), want.In(v).begin(),
                           want.In(v).end()))
        << what << ", in-list of v" << v;
  }
}

/// Runs `body` with the calling thread pinned to one CPU of its affinity
/// mask, so set-up sees one usable CPU and starts no thread; restores
/// the mask afterwards.
void OnOneCpu(const std::function<void()>& body) {
  cpu_set_t all;
  ASSERT_EQ(sched_getaffinity(0, sizeof(all), &all), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &all)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  body();
  ASSERT_EQ(sched_setaffinity(0, sizeof(all), &all), 0);
}

TEST(ParallelSetupTest, BenchmarkSizedDrawAndBuildMatchOracles) {
  // pagerank-bsp's graphs: UK' shape, 160k vertices, 4M edges.
  const DatasetSpec spec = FindSpec("UK'");
  const EdgeList want_edges =
      OraclePowerLawChungLu(160000, spec.avg_degree, spec.gamma, 201);
  ASSERT_GE(static_cast<int64_t>(want_edges.edges.size()),
            Graph::kParallelBuildMinEdges * 8);
  const OracleGraph want = *OracleFromEdgeList(want_edges);
  auto check = [&](const std::string& what) {
    const EdgeList got =
        PowerLawChungLu(160000, spec.avg_degree, spec.gamma, 201);
    ASSERT_EQ(got.num_vertices, want_edges.num_vertices) << what;
    ASSERT_TRUE(got.edges == want_edges.edges) << what;
    const StatusOr<Graph> g = Graph::FromEdgeList(got);
    ASSERT_TRUE(g.ok()) << what << ": " << g.status();
    ExpectSameLists(*g, want, what);
  };
  check("all usable CPUs");
  OnOneCpu([&] { check("one CPU"); });
}

TEST(ParallelSetupTest, RejectionHeavyDrawMatchesSequentialSampler) {
  // Three vertices: about 2 candidates in 5 are self loops and rejected,
  // so the kept edges of every chunk shift, rejected candidates straddle
  // every chunk boundary, and the draw needs chunks beyond the first
  // estimate. 150000 edges take about 15 chunks.
  for (const uint64_t seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
    const EdgeList want = OraclePowerLawChungLu(3, 50000.0, 2.1, seed);
    const EdgeList got = PowerLawChungLu(3, 50000.0, 2.1, seed);
    ASSERT_EQ(got.edges.size(), 150000u);
    ASSERT_TRUE(got.edges == want.edges) << "seed " << seed;
  }
}

TEST(ParallelSetupTest, ReportsTheFirstBadEdgeInInputOrder) {
  // Large enough that the build splits its input between threads (on a
  // multi-CPU host). Each plant puts one to three bad endpoints in
  // different threads' slices; in some the first bad edge is in a later
  // slice than the threads' first, in some a later slice holds another.
  const EdgeList base = PowerLawChungLu(2000, 300.0, 2.4, 5);
  const auto m = static_cast<int64_t>(base.edges.size());
  ASSERT_GE(m, Graph::kParallelBuildMinEdges);
  const std::vector<std::vector<int64_t>> plants = {
      {m - 1}, {m / 2, m - 1}, {3 * m / 4, m / 4 + 7}, {m / 4, m / 2},
      {m / 3 + 1, m / 2 + 1, 2 * m / 3 + 1}};
  for (size_t p = 0; p < plants.size(); ++p) {
    EdgeList el = base;
    VertexId bad = 2000;
    for (const int64_t i : plants[p]) el.edges[i].dst = bad++;
    const StatusOr<OracleGraph> want = OracleFromEdgeList(el);
    const StatusOr<Graph> got = Graph::FromEdgeList(el);
    ASSERT_FALSE(got.ok()) << "plant " << p;
    EXPECT_EQ(got.status().message(), want.status().message())
        << "plant " << p;
  }
}

/// std::lower_bound's answer over `cdf`, clamped to the last index: what
/// CdfLookup::Find must return for every u.
VertexId OracleFind(const std::vector<double>& cdf, double u) {
  auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  if (it == cdf.end()) --it;
  return static_cast<VertexId>(it - cdf.begin());
}

TEST(CdfLookupTest, MatchesLowerBoundAtEveryRoundingEdge) {
  // CDFs that put entries on and just off the guide table's bucket
  // boundaries k/K, where the bucket of u and the answer can disagree by
  // rounding (singly and in runs of three, so the walk must go down more
  // than one step); CDFs ending below 1 (the clamp); runs of equal
  // entries (zero weights: the first of a run must win); and the
  // generator's own power-law CDFs.
  std::vector<std::vector<double>> cdfs;
  for (const int n : {1, 2, 3, 10, 100, 1000, 1001}) {
    std::vector<double> below(n), runs(n), exact(n), short_of_one(n);
    for (int i = 0; i < n; ++i) {
      const double boundary = static_cast<double>(i + 1) / n;
      below[i] = std::nextafter(boundary, 0.0);
      runs[i] = std::nextafter(
          static_cast<double>(std::min(i / 3 * 3 + 3, n)) / n, 0.0);
      exact[i] = boundary;
      short_of_one[i] = 0.5 * boundary;
    }
    cdfs.push_back(below);
    cdfs.push_back(runs);
    cdfs.push_back(exact);
    cdfs.push_back(short_of_one);
  }
  cdfs.push_back({0.0, 0.0, 0.0, 0.25, 0.25, 0.5, 0.5, 0.5, 1.0, 1.0});
  cdfs.push_back({0.0, 0.0});
  for (const DatasetSpec& spec : StandInSpecs()) {
    const double exponent = -1.0 / (spec.gamma - 1.0);
    for (const int n : {2, 16, 5000}) {
      std::vector<double> weights(n), cdf(n);
      double total = 0.0;
      for (int v = 0; v < n; ++v) {
        weights[v] = std::pow(static_cast<double>(v + 1), exponent);
        total += weights[v];
      }
      double acc = 0.0;
      for (int v = 0; v < n; ++v) cdf[v] = acc += weights[v] / total;
      cdfs.push_back(cdf);
    }
  }

  Rng rng(3);
  int64_t probes = 0;
  for (const std::vector<double>& cdf : cdfs) {
    const CdfLookup lookup(cdf);
    const auto n = static_cast<double>(cdf.size());
    std::vector<double> us = {0.0, std::nextafter(1.0, 0.0), 1.0};
    for (const double c : cdf) us.push_back(c);
    for (size_t k = 0; k <= cdf.size(); ++k) {
      us.push_back(static_cast<double>(k) / n);
    }
    // Three neighbours on each side of every probe so far.
    for (size_t i = 0, end = us.size(); i < end; ++i) {
      double below = us[i];
      double above = us[i];
      for (int step = 0; step < 3; ++step) {
        below = std::nextafter(below, 0.0);
        above = std::nextafter(above, 2.0);
        us.push_back(below);
        us.push_back(above);
      }
    }
    for (int i = 0; i < 2000; ++i) us.push_back(rng.NextDouble());
    for (const double u : us) {
      if (u < 0.0 || u > 1.0) continue;
      ASSERT_EQ(lookup.Find(u), OracleFind(cdf, u))
          << "u=" << u << " over a cdf of " << cdf.size();
      ++probes;
    }
  }
  EXPECT_GT(probes, 100000);
}

}  // namespace
}  // namespace serigraph
