// The push/pull switch's cost model and its gather (docs/PERF.md, "Push
// vs. pull"): kAuto captures a superstep iff the out-edges of its
// potential broadcasters reach |E| / kPullCostRatio, whatever share of
// the vertices they are, and the gather folds every in-neighbor's slot
// from the combiner identity, bit-identically to a fold over the
// broadcasting in-neighbors only.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "graph/graph.h"
#include "pregel/engine.h"

namespace serigraph {
namespace {

constexpr VertexId kVertices = 2000;

Graph Make(const EdgeList& el) {
  auto g = Graph::FromEdgeList(el);
  SG_CHECK(g.ok());
  return std::move(g).value();
}

/// 40 hubs (2% of the vertices) with 400 out-edges each, every other
/// vertex with one: the hubs own 89% of the out-edges.
Graph HubGraph() {
  EdgeList el;
  el.num_vertices = kVertices;
  for (VertexId v = 0; v < kVertices; ++v) {
    if (v < 40) {
      for (VertexId k = 1; k <= 400; ++k) {
        el.edges.push_back({v, (v + k * 3) % kVertices});
      }
    } else {
      el.edges.push_back({v, (v + 1) % kVertices});
    }
  }
  return Make(el);
}

/// Half the vertices with one out-edge, the other half with 20: the
/// light half owns 4.8% of the out-edges.
Graph LightHalfGraph() {
  EdgeList el;
  el.num_vertices = kVertices;
  for (VertexId v = 0; v < kVertices; ++v) {
    const VertexId degree = v < kVertices / 2 ? 1 : 20;
    for (VertexId k = 1; k <= degree; ++k) {
      el.edges.push_back({v, (v + k * 7) % kVertices});
    }
  }
  return Make(el);
}

EngineOptions Options(PushPullMode mode) {
  EngineOptions opts;
  opts.model = ComputationModel::kBsp;
  opts.num_workers = 3;
  opts.partitions_per_worker = 2;
  opts.compute_threads_per_worker = 2;
  opts.push_pull = mode;
  return opts;
}

/// Every vertex runs superstep 0; those whose out-degree lies in
/// [lo, hi] stay active and broadcast 1 in superstep 1. So the frontier
/// the switch sees at the first barrier is exactly that band.
struct BandBroadcast {
  using VertexValue = int64_t;
  using Message = int64_t;
  static Message Combine(const Message& a, const Message& b) { return a + b; }
  static constexpr Message kCombineIdentity = 0;

  int64_t lo;
  int64_t hi;

  VertexValue InitialValue(VertexId, const Graph&) const { return 0; }
  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const Message> messages) const {
    for (Message m : messages) ctx.set_value(ctx.value() + m);
    const bool in_band =
        ctx.num_out_edges() >= lo && ctx.num_out_edges() <= hi;
    if (ctx.superstep() == 0 && in_band) return;
    if (ctx.superstep() == 1 && in_band) ctx.SendToAllOutNeighbors(1);
    ctx.VoteToHalt();
  }
};

struct Band {
  int64_t vertices = 0;
  int64_t edges = 0;
};

Band MeasureBand(const Graph& g, const BandBroadcast& program) {
  Band band;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const int64_t degree = g.OutDegree(v);
    if (degree >= program.lo && degree <= program.hi) {
      ++band.vertices;
      band.edges += degree;
    }
  }
  return band;
}

/// Runs `program` under kAuto and checks superstep 1's mode against the
/// band's recorded density and edge share; returns whether it captured.
bool AutoCapturesBand(const Graph& g, const BandBroadcast& program) {
  const Band band = MeasureBand(g, program);
  Engine<BandBroadcast> reference_engine(&g,
                                         Options(PushPullMode::kForcePush));
  auto reference = reference_engine.Run(program);
  SG_CHECK(reference.ok());
  Engine<BandBroadcast> engine(&g, Options(PushPullMode::kAuto));
  auto result = engine.Run(program);
  SG_CHECK(result.ok());
  EXPECT_EQ(result->values, reference->values);

  bool captured = false;
  int rows = 0;
  for (const SuperstepSample& row : result->stats.timeline) {
    if (row.superstep == 0) {
      EXPECT_EQ(row.frontier_density_milli,
                band.vertices * 1000 / g.num_vertices());
      EXPECT_EQ(row.frontier_edge_share_milli,
                band.edges * 1000 / g.num_edges());
    }
    if (row.superstep == 1) {
      captured = (row.pull_mode & 1) != 0;
      EXPECT_EQ(captured, band.edges * kPullCostRatio >= g.num_edges());
      ++rows;
    }
  }
  EXPECT_EQ(rows, 3) << "one superstep-1 row per worker";
  return captured;
}

TEST(PushPullCostModelTest, FewHubsWithMostEdgesCapture) {
  const Graph g = HubGraph();
  const BandBroadcast hubs{100, g.num_vertices()};
  const Band band = MeasureBand(g, hubs);
  ASSERT_LT(band.vertices * 20, g.num_vertices()) << "under 5% of vertices";
  ASSERT_GT(band.edges * 2, g.num_edges()) << "over 50% of out-edges";
  EXPECT_TRUE(AutoCapturesBand(g, hubs));
}

TEST(PushPullCostModelTest, ManyLightVerticesPush) {
  const Graph g = LightHalfGraph();
  const BandBroadcast light{0, 1};
  const Band band = MeasureBand(g, light);
  ASSERT_GE(band.vertices * 10, g.num_vertices() * 4)
      << "at least 40% of vertices";
  ASSERT_LT(band.edges * kPullCostRatio, g.num_edges())
      << "under the edge-share threshold";
  EXPECT_FALSE(AutoCapturesBand(g, light));
}

struct Counters {
  int supersteps = 0;
  int64_t executions = 0;
  int64_t messages = 0;
  int64_t pulls = 0;
};

template <typename Program>
Counters RunMode(const Graph& g, PushPullMode mode, const Program& program,
                 std::vector<typename Program::VertexValue>* values) {
  Engine<Program> engine(&g, Options(mode));
  auto result = engine.Run(program);
  SG_CHECK(result.ok());
  EXPECT_TRUE(result->stats.converged);
  *values = result->values;
  return {result->stats.supersteps,
          result->stats.Metric("pregel.vertex_executions"),
          result->stats.Metric("pregel.messages_sent"),
          result->stats.Metric("engine.pull_supersteps")};
}

void ExpectSameWork(const Counters& push, const Counters& other,
                    const std::string& what) {
  EXPECT_EQ(push.supersteps, other.supersteps) << what;
  EXPECT_EQ(push.executions, other.executions) << what;
  EXPECT_EQ(push.messages, other.messages) << what;
}

/// SSSP and WCC are bit-identical to forced push on both cost-model
/// graphs, PageRank within 1e-6, and every mode does the same work.
TEST(PushPullCostModelTest, ModesAgreeOnBothGraphs) {
  const Graph graphs[] = {HubGraph(), LightHalfGraph()};
  for (const Graph& g : graphs) {
    const Graph gu = g.Undirected();
    std::vector<int64_t> sssp_push, wcc_push;
    std::vector<double> pr_push;
    const Counters sssp_base =
        RunMode(g, PushPullMode::kForcePush, Sssp(0), &sssp_push);
    const Counters wcc_base =
        RunMode(gu, PushPullMode::kForcePush, Wcc(), &wcc_push);
    const Counters pr_base =
        RunMode(g, PushPullMode::kForcePush, PageRank(1e-9), &pr_push);
    EXPECT_EQ(sssp_base.pulls + wcc_base.pulls + pr_base.pulls, 0);
    for (PushPullMode mode : {PushPullMode::kForcePull, PushPullMode::kAuto}) {
      const std::string what =
          std::string(mode == PushPullMode::kAuto ? "auto" : "pull") +
          " on |E|=" + std::to_string(g.num_edges());
      std::vector<int64_t> sssp, wcc;
      std::vector<double> pr;
      Counters c = RunMode(g, mode, Sssp(0), &sssp);
      EXPECT_EQ(sssp, sssp_push) << what;
      if (mode == PushPullMode::kForcePull) {
        EXPECT_GE(c.pulls, 1) << what;
      }
      ExpectSameWork(sssp_base, c, "sssp " + what);

      c = RunMode(gu, mode, Wcc(), &wcc);
      EXPECT_EQ(wcc, wcc_push) << what;
      ExpectSameWork(wcc_base, c, "wcc " + what);

      c = RunMode(g, mode, PageRank(1e-9), &pr);
      EXPECT_GE(c.pulls, 1) << what;
      ExpectSameWork(pr_base, c, "pagerank " + what);
      ASSERT_EQ(pr.size(), pr_push.size());
      for (size_t v = 0; v < pr.size(); ++v) {
        EXPECT_NEAR(pr[v], pr_push[v], 1e-6) << what << " vertex " << v;
      }
    }
  }
}

/// Superstep 0: every vertex not divisible by 3 (or, when `sparse`,
/// every tenth) broadcasts a value of its own magnitude, so sums depend
/// on their order. Superstep 1: each receiver keeps the one combined
/// message it gets under pull.
struct OrderSensitiveSum {
  using VertexValue = double;
  using Message = double;
  static Message Combine(const Message& a, const Message& b) { return a + b; }

  static Message Payload(VertexId v) {
    return 1.0 / (static_cast<double>(v) + 3.0) * (1.0 + 1e-3 * (v % 7));
  }
  bool Broadcasts(VertexId v) const {
    return sparse ? v % 10 == 0 : v % 3 != 0;
  }

  bool sparse = false;

  VertexValue InitialValue(VertexId, const Graph&) const { return -1.0; }
  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const Message> messages) const {
    if (ctx.superstep() == 0 && Broadcasts(ctx.id())) {
      ctx.SendToAllOutNeighbors(Payload(ctx.id()));
    }
    if (ctx.superstep() == 1) {
      EXPECT_EQ(messages.size(), 1u) << "vertex " << ctx.id();
      if (!messages.empty()) ctx.set_value(messages[0]);
    }
    ctx.VoteToHalt();
  }
};

struct OrderSensitiveSumWithIdentity : OrderSensitiveSum {
  static constexpr Message kCombineIdentity = 0.0;
};

static_assert(Engine<PageRank>::kPullCapable);
static_assert(Engine<Sssp>::kPullCapable);
static_assert(Engine<Wcc>::kPullCapable);
static_assert(Engine<OrderSensitiveSumWithIdentity>::kPullCapable);
static_assert(!Engine<OrderSensitiveSum>::kPullCapable,
              "a combiner without an identity is not pull-capable");

/// The identity-seeded gather equals, bit for bit, the fold that starts
/// at the first broadcasting in-neighbor and skips the silent ones: with
/// captures on most in-edges (every slot folds) and on few (silent
/// in-neighbors are skipped).
TEST(PushPullGatherTest, IdentitySeededFoldMatchesBranchyFold) {
  const Graph graphs[] = {HubGraph(), LightHalfGraph()};
  for (const Graph& g : graphs) {
    for (bool sparse : {false, true}) {
      OrderSensitiveSumWithIdentity program;
      program.sparse = sparse;
      Engine<OrderSensitiveSumWithIdentity> engine(
          &g, Options(PushPullMode::kForcePull));
      auto result = engine.Run(program);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_GE(result->stats.Metric("engine.pull_supersteps"), 1);
      int64_t receivers = 0;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        bool have = false;
        double folded = -1.0;
        for (VertexId u : g.InNeighbors(v)) {
          if (!program.Broadcasts(u)) continue;
          const double m = OrderSensitiveSum::Payload(u);
          folded = have ? folded + m : m;
          have = true;
        }
        receivers += have ? 1 : 0;
        EXPECT_EQ(std::bit_cast<uint64_t>(result->values[v]),
                  std::bit_cast<uint64_t>(folded))
            << "vertex " << v << (sparse ? " sparse" : " dense");
      }
      EXPECT_GT(receivers, 0);
    }
  }
}

TEST(PushPullGatherTest, CombinerWithoutIdentityNeverCaptures) {
  const Graph g = HubGraph();
  Engine<OrderSensitiveSum> engine(&g, Options(PushPullMode::kForcePull));
  auto result = engine.Run(OrderSensitiveSum());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.Metric("engine.pull_supersteps"), 0);
  for (const SuperstepSample& row : result->stats.timeline) {
    EXPECT_EQ(row.pull_mode, 0) << "superstep " << row.superstep;
    EXPECT_EQ(row.frontier_edge_share_milli, 0) << "switch is off";
  }
}

/// The timeline rows of the metrics JSON carry the switch's input and
/// its mode next to the density.
TEST(PushPullTimelineTest, JsonRowsCarryTheDecisionInput) {
  const Graph g = HubGraph();
  Engine<BandBroadcast> engine(&g, Options(PushPullMode::kAuto));
  auto result = engine.Run(BandBroadcast{100, g.num_vertices()});
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string json = RunStatsToJson(result->stats);
  for (const char* key : {"\"frontier_density_milli\"",
                          "\"frontier_edge_share_milli\"",
                          "\"pull_mode\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  const SuperstepSample& first = result->stats.timeline.front();
  EXPECT_NE(json.find("\"frontier_edge_share_milli\":" +
                      std::to_string(first.frontier_edge_share_milli)),
            std::string::npos);
}

}  // namespace
}  // namespace serigraph
