// Tests of BSP/AP computation-model semantics: message visibility,
// halting/reactivation, combiners, max-superstep cutoff, and the
// staleness behaviours from the paper's Figures 2-3.

#include <gtest/gtest.h>

#include <atomic>

#include "algos/coloring.h"
#include "algos/sssp.h"
#include "graph/generators.h"
#include "pregel/engine.h"

namespace serigraph {
namespace {

Graph Make(const EdgeList& el) {
  auto g = Graph::FromEdgeList(el);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

/// Records, for each execution, the superstep and the messages seen.
/// Vertex value = superstep in which the first message arrived (-1 none).
struct ProbeProgram {
  using VertexValue = int64_t;
  using Message = int64_t;

  VertexValue InitialValue(VertexId, const Graph&) const { return -1; }

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const Message> messages) const {
    if (ctx.superstep() == 0 && ctx.id() == 0) {
      // v0 sends in superstep 0.
      ctx.SendToAllOutNeighbors(42);
    }
    if (!messages.empty() && ctx.value() == -1) {
      ctx.set_value(ctx.superstep());
    }
    if (ctx.superstep() >= 3) ctx.VoteToHalt();
  }
};

TEST(BspSemanticsTest, MessagesVisibleOnlyNextSuperstep) {
  // v0 -> v1 on the same worker: even local messages must be delayed
  // under BSP (the paper's footnote 1: BSP updates replicas lazily).
  Graph g = Make({2, {{0, 1}}});
  EngineOptions opts;
  opts.model = ComputationModel::kBsp;
  opts.num_workers = 1;
  opts.max_supersteps = 6;
  Engine<ProbeProgram> engine(&g, opts);
  auto result = engine.Run(ProbeProgram());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->values[1], 1);  // sent in 0, seen in 1
}

TEST(ApSemanticsTest, LocalMessagesVisibleSameSuperstep) {
  // Under AP with one worker, v0 executes before v1 (same partition,
  // sequential), so v1 sees the message in superstep 0 already.
  Graph g = Make({2, {{0, 1}}});
  EngineOptions opts;
  opts.model = ComputationModel::kAsync;
  opts.num_workers = 1;
  opts.partitions_per_worker = 1;
  opts.max_supersteps = 6;
  Engine<ProbeProgram> engine(&g, opts);
  auto result = engine.Run(ProbeProgram());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->values[1], 0);  // eager local replica update
}

TEST(BspSemanticsTest, Figure2OscillationIsDeterministic) {
  // The paper's Figure 2: repair coloring on the 4-cycle under BSP
  // oscillates; after every superstep >= 1 all four vertices share one
  // color, flipping 0 <-> 1. Cut off at an even count: all back to 0.
  Graph g = Make(PaperExampleGraph());
  for (int cutoff : {10, 11}) {
    EngineOptions opts;
    opts.model = ComputationModel::kBsp;
    opts.num_workers = 2;
    opts.partitions_per_worker = 1;
    opts.partition_scheme = PartitionScheme::kContiguous;
    opts.max_supersteps = cutoff;
    Engine<RepairColoring> engine(&g, opts);
    auto result = engine.Run(RepairColoring());
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->stats.converged);
    auto colors = RepairColoringColors(result->values);
    // All vertices always hold the same color => never proper.
    EXPECT_EQ(colors[0], colors[1]);
    EXPECT_EQ(colors[1], colors[2]);
    EXPECT_EQ(colors[2], colors[3]);
  }
}

struct HaltNow {
  using VertexValue = int64_t;
  using Message = int64_t;
  VertexValue InitialValue(VertexId, const Graph&) const { return 0; }
  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const Message>) const {
    ctx.set_value(ctx.value() + 1);
    ctx.VoteToHalt();
  }
};

struct PingOnce {
  using VertexValue = int64_t;  // execution count
  using Message = int64_t;
  VertexValue InitialValue(VertexId, const Graph&) const { return 0; }
  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const Message>) const {
    ctx.set_value(ctx.value() + 1);
    if (ctx.id() == 0 && ctx.superstep() == 1) {
      ctx.SendToAllOutNeighbors(1);
    }
    if (ctx.id() == 0 && ctx.superstep() < 1) return;  // stay active
    ctx.VoteToHalt();
  }
};

struct NeverHalt {
  using VertexValue = int64_t;
  using Message = int64_t;
  VertexValue InitialValue(VertexId, const Graph&) const { return 0; }
  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const Message>) const {
    ctx.set_value(ctx.value() + 1);
  }
};

TEST(HaltingTest, HaltedVertexWithoutMessagesDoesNotRun) {
  // Count executions: each vertex halts immediately and nobody sends
  // messages, so there must be exactly one execution per vertex.
  Graph g = Make(Ring(32));
  EngineOptions opts;
  opts.num_workers = 2;
  Engine<HaltNow> engine(&g, opts);
  auto result = engine.Run(HaltNow());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.converged);
  EXPECT_EQ(result->stats.supersteps, 1);
  for (int64_t executions : result->values) EXPECT_EQ(executions, 1);
  EXPECT_EQ(result->stats.Metric("pregel.vertex_executions"), 32);
}

TEST(HaltingTest, MessageReactivatesHaltedVertex) {
  // v0 pings v1 once in superstep 1; v1 halted in superstep 0 and must
  // wake exactly once more.
  Graph g = Make({2, {{0, 1}}});
  EngineOptions opts;
  opts.model = ComputationModel::kBsp;
  opts.num_workers = 1;
  Engine<PingOnce> engine(&g, opts);
  auto result = engine.Run(PingOnce());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.converged);
  EXPECT_EQ(result->values[0], 2);  // supersteps 0 and 1
  EXPECT_EQ(result->values[1], 2);  // superstep 0, then woken in 2
}

TEST(CombinerTest, MinCombinerCollapsesMessages) {
  // Star: all leaves message the center in one superstep; with the min
  // combiner the center's store holds a single combined message.
  Graph g = Make(Star(64));
  EngineOptions opts;
  opts.model = ComputationModel::kBsp;
  opts.num_workers = 2;
  Engine<Sssp> engine(&g, opts);
  auto result = engine.Run(Sssp(/*source=*/1));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->values, ReferenceSssp(g, 1));
}

TEST(EngineConfigTest, MaxSuperstepsCutsOff) {
  Graph g = Make(Ring(8));
  EngineOptions opts;
  opts.num_workers = 2;
  opts.max_supersteps = 7;
  Engine<NeverHalt> engine(&g, opts);
  auto result = engine.Run(NeverHalt());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->stats.converged);
  EXPECT_EQ(result->stats.supersteps, 7);
  for (int64_t v : result->values) EXPECT_EQ(v, 7);
}

TEST(EngineConfigTest, WorkerAndThreadSweeps) {
  Graph g = Make(ErdosRenyi(300, 1500, 21));
  auto reference = ReferenceSssp(g, 0);
  for (int workers : {1, 2, 3, 8}) {
    for (int threads : {1, 2, 4}) {
      EngineOptions opts;
      opts.num_workers = workers;
      opts.compute_threads_per_worker = threads;
      opts.partitions_per_worker = 4;
      Engine<Sssp> engine(&g, opts);
      auto result = engine.Run(Sssp(0));
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->values, reference)
          << "workers=" << workers << " threads=" << threads;
    }
  }
}

/// Tallies its own executions and sends in its value: a ground truth for
/// the engine's statistics that no engine-side fold touches.
struct SelfCounting {
  struct VertexValue {
    int64_t executions = 0;
    int64_t sent = 0;
    int64_t sent_local = 0;  // to a vertex on the sender's worker
  };
  using Message = int64_t;  // combinable and flat: pull-capable

  static Message Combine(const Message& a, const Message& b) { return a + b; }

  const Partitioning* partitioning = nullptr;

  VertexValue InitialValue(VertexId, const Graph&) const { return {}; }

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const Message>) const {
    VertexValue value = ctx.value();
    ++value.executions;
    if (ctx.superstep() < 6) {
      ctx.SendToAllOutNeighbors(1);
      value.sent += ctx.num_out_edges();
      for (VertexId u : ctx.out_neighbors()) {
        if (partitioning->WorkerOf(u) == partitioning->WorkerOf(ctx.id())) {
          ++value.sent_local;
        }
      }
    }
    ctx.set_value(value);
    ctx.VoteToHalt();
  }
};

TEST(EngineStatsTest, CountersAgreeWithTimelineAndGaugeKeepsItsMeaning) {
  // A random graph plus a rung from every vertex to its mirror in the
  // other half: under contiguous partitioning over two workers no vertex
  // is m-internal, so single-layer token passing lets only the token
  // holder execute.
  constexpr VertexId kVertices = 256;
  EdgeList el = ErdosRenyi(kVertices, 1024, /*seed=*/5);
  for (VertexId v = 0; v < kVertices / 2; ++v) {
    el.edges.push_back({v, v + kVertices / 2});
  }
  Graph g = Make(el).Undirected();
  constexpr int kWorkers = 2;
  constexpr int kThreads = 2;
  constexpr int kPartitionsPerWorker = 2;
  const Partitioning partitioning =
      Partitioning::Contiguous(kVertices, kWorkers, kPartitionsPerWorker);

  struct Case {
    const char* name;
    ComputationModel model;
    SyncMode sync;
    PushPullMode push_pull;
    /// Every send goes through the message path, none is a captured
    /// broadcast, so local_sends is exact.
    bool push_only;
  };
  const Case cases[] = {
      {"bsp-push", ComputationModel::kBsp, SyncMode::kNone,
       PushPullMode::kForcePush, true},
      {"bsp-pull", ComputationModel::kBsp, SyncMode::kNone,
       PushPullMode::kForcePull, false},
      {"bsp-auto", ComputationModel::kBsp, SyncMode::kNone,
       PushPullMode::kAuto, false},
      {"ap", ComputationModel::kAsync, SyncMode::kNone, PushPullMode::kAuto,
       true},
      {"partition-locking", ComputationModel::kAsync,
       SyncMode::kPartitionLocking, PushPullMode::kAuto, true},
      {"vertex-locking", ComputationModel::kAsync, SyncMode::kVertexLocking,
       PushPullMode::kAuto, true},
      {"single-layer-token", ComputationModel::kAsync,
       SyncMode::kSingleLayerToken, PushPullMode::kAuto, true},
      {"dual-layer-token", ComputationModel::kAsync,
       SyncMode::kDualLayerToken, PushPullMode::kAuto, true},
      {"constrained-bsp", ComputationModel::kBsp,
       SyncMode::kConstrainedBspLocking, PushPullMode::kAuto, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EngineOptions opts;
    opts.model = c.model;
    opts.sync_mode = c.sync;
    opts.push_pull = c.push_pull;
    opts.num_workers = kWorkers;
    opts.partitions_per_worker = kPartitionsPerWorker;
    opts.compute_threads_per_worker = kThreads;
    opts.max_supersteps = 200;
    Engine<SelfCounting> engine(&g, opts);
    ASSERT_TRUE(engine.UsePartitioning(partitioning).ok());
    auto result = engine.Run(SelfCounting{&partitioning});
    ASSERT_TRUE(result.ok()) << result.status();
    const RunStats& stats = result->stats;
    EXPECT_TRUE(stats.converged);

    int64_t executions = 0, sent = 0, sent_local = 0;
    for (const SelfCounting::VertexValue& value : result->values) {
      executions += value.executions;
      sent += value.sent;
      sent_local += value.sent_local;
    }
    EXPECT_GT(executions, 0);
    EXPECT_EQ(stats.Metric("pregel.vertex_executions"), executions);
    EXPECT_EQ(Total(stats.timeline, &SuperstepSample::vertices_executed),
              executions);
    EXPECT_EQ(stats.Metric("pregel.messages_sent"), sent);
    EXPECT_EQ(Total(stats.timeline, &SuperstepSample::messages_sent), sent);
    EXPECT_LE(stats.Metric("pregel.local_sends"), sent);
    if (c.push_only) {
      EXPECT_EQ(stats.Metric("pregel.local_sends"), sent_local);
    }

    const int64_t peak = stats.Metric("pregel.max_concurrent_executions");
    if (c.sync == SyncMode::kSingleLayerToken) {
      EXPECT_EQ(peak, 1);
    } else {
      EXPECT_GE(peak, 1);
      EXPECT_LE(peak, kWorkers * kThreads);
    }
  }
}

TEST(EngineConfigTest, RunTwiceIsAnError) {
  Graph g = Make(Ring(4));
  EngineOptions opts;
  opts.num_workers = 1;
  Engine<Sssp> engine(&g, opts);
  ASSERT_TRUE(engine.Run(Sssp(0)).ok());
  EXPECT_DEATH((void)engine.Run(Sssp(0)), "");
}

TEST(EngineConfigTest, ExplicitPartitioningValidation) {
  Graph g = Make(Ring(4));
  EngineOptions opts;
  opts.num_workers = 2;
  Engine<Sssp> engine(&g, opts);
  // Wrong vertex count.
  EXPECT_FALSE(
      engine.UsePartitioning(Partitioning::Contiguous(5, 2, 1)).ok());
  // Wrong worker count.
  EXPECT_FALSE(
      engine.UsePartitioning(Partitioning::Contiguous(4, 3, 1)).ok());
  EXPECT_TRUE(
      engine.UsePartitioning(Partitioning::Contiguous(4, 2, 1)).ok());
}

}  // namespace
}  // namespace serigraph
