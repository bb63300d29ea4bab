// Randomized cross-model equivalence properties: algorithms with a
// unique fixpoint (SSSP, WCC, triangle counting) must produce identical
// results under every computation model and synchronization technique,
// across random graphs, seeds, worker counts, and partitionings.

#include <gtest/gtest.h>

#include <numeric>

#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "algos/triangles.h"
#include "algos/wcc.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/streaming_partitioner.h"
#include "pregel/engine.h"

namespace serigraph {
namespace {

struct Scenario {
  uint64_t seed;
};

class ModelEquivalenceTest : public testing::TestWithParam<Scenario> {};

Graph RandomGraph(uint64_t seed) {
  Rng rng(seed);
  const VertexId n = 100 + static_cast<VertexId>(rng.Uniform(300));
  const int64_t m = n * (2 + static_cast<int64_t>(rng.Uniform(6)));
  auto g = Graph::FromEdgeList(ErdosRenyi(n, m, seed * 31 + 7));
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST_P(ModelEquivalenceTest, SsspIdenticalAcrossConfigurations) {
  const uint64_t seed = GetParam().seed;
  Graph g = RandomGraph(seed);
  auto reference = ReferenceSssp(g, 0);
  Rng rng(seed * 13 + 1);

  struct Config {
    ComputationModel model;
    SyncMode sync;
  };
  const Config configs[] = {
      {ComputationModel::kBsp, SyncMode::kNone},
      {ComputationModel::kAsync, SyncMode::kNone},
      {ComputationModel::kAsync, SyncMode::kDualLayerToken},
      {ComputationModel::kAsync, SyncMode::kPartitionLocking},
      {ComputationModel::kAsync, SyncMode::kVertexLocking},
  };
  for (const Config& config : configs) {
    EngineOptions opts;
    opts.model = config.model;
    opts.sync_mode = config.sync;
    opts.num_workers = 1 + static_cast<int>(rng.Uniform(5));
    opts.partitions_per_worker = 1 + static_cast<int>(rng.Uniform(4));
    opts.compute_threads_per_worker = 1 + static_cast<int>(rng.Uniform(3));
    opts.partition_seed = rng.Next();
    Engine<Sssp> engine(&g, opts);
    auto result = engine.Run(Sssp(0));
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->stats.converged);
    EXPECT_EQ(result->values, reference)
        << "seed=" << seed << " sync=" << SyncModeName(config.sync);
  }
}

TEST_P(ModelEquivalenceTest, WccIdenticalAcrossConfigurations) {
  const uint64_t seed = GetParam().seed;
  // Sparser graph so several components exist.
  auto el = ErdosRenyi(250, 260, seed * 17 + 3);
  auto g_or = Graph::FromEdgeList(el);
  ASSERT_TRUE(g_or.ok());
  Graph g = g_or->Undirected();
  auto reference = ReferenceWcc(g);
  Rng rng(seed);

  for (SyncMode sync : {SyncMode::kNone, SyncMode::kSingleLayerToken,
                        SyncMode::kPartitionLocking}) {
    EngineOptions opts;
    opts.model = sync == SyncMode::kNone && rng.Bernoulli(0.5)
                     ? ComputationModel::kBsp
                     : ComputationModel::kAsync;
    opts.sync_mode = sync;
    opts.num_workers = 2 + static_cast<int>(rng.Uniform(3));
    opts.partition_seed = rng.Next();
    Engine<Wcc> engine(&g, opts);
    auto result = engine.Run(Wcc());
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->values, reference) << "sync=" << SyncModeName(sync);
  }
}

TEST_P(ModelEquivalenceTest, TrianglesIdenticalUnderLdgPartitioning) {
  const uint64_t seed = GetParam().seed;
  auto g_or = Graph::FromEdgeList(ErdosRenyi(120, 800, seed * 5 + 11));
  ASSERT_TRUE(g_or.ok());
  Graph g = g_or->Undirected();
  const int64_t expected = ReferenceTriangleCount(g);

  StreamingPartitionOptions popts;
  popts.num_workers = 3;
  popts.seed = seed + 1;
  EngineOptions opts;
  opts.num_workers = 3;
  Engine<TriangleCount> engine(&g, opts);
  ASSERT_TRUE(
      engine.UsePartitioning(StreamingGreedyPartition(g, popts)).ok());
  auto result = engine.Run(TriangleCount());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::accumulate(result->values.begin(), result->values.end(),
                            int64_t{0}),
            expected);
}

// Sender-side combining is a pure wire/lock optimization: for every
// combiner-bearing algorithm, running with it on and off must agree.
// Combining is on unless a history recorder is attached, so the
// uncombined side records history. SSSP and WCC use min (exact in
// int64); PageRank's sum combiner changes floating-point fold order, so
// it gets a tight numeric tolerance.
TEST_P(ModelEquivalenceTest, SenderCombiningSsspAndWccIdentical) {
  const uint64_t seed = GetParam().seed;
  Graph g = RandomGraph(seed);
  auto sssp_reference = ReferenceSssp(g, 0);
  Graph gu = g.Undirected();
  auto wcc_reference = ReferenceWcc(gu);
  Rng rng(seed * 29 + 5);

  struct Config {
    ComputationModel model;
    SyncMode sync;
  };
  const Config configs[] = {
      {ComputationModel::kBsp, SyncMode::kNone},
      {ComputationModel::kAsync, SyncMode::kNone},
      {ComputationModel::kAsync, SyncMode::kPartitionLocking},
  };
  for (const Config& config : configs) {
    EngineOptions opts;
    opts.model = config.model;
    opts.sync_mode = config.sync;
    // Multiple workers so the out-buffer (combining) path carries real
    // traffic; single-worker runs never exercise it.
    opts.num_workers = 2 + static_cast<int>(rng.Uniform(3));
    opts.partitions_per_worker = 1 + static_cast<int>(rng.Uniform(3));
    opts.compute_threads_per_worker = 1 + static_cast<int>(rng.Uniform(3));
    opts.partition_seed = rng.Next();
    for (bool combining : {false, true}) {
      opts.record_history = !combining;
      Engine<Sssp> sssp(&g, opts);
      auto sssp_result = sssp.Run(Sssp(0));
      ASSERT_TRUE(sssp_result.ok()) << sssp_result.status();
      EXPECT_EQ(sssp_result->values, sssp_reference)
          << "seed=" << seed << " sync=" << SyncModeName(config.sync)
          << " combining=" << combining;
      Engine<Wcc> wcc(&gu, opts);
      auto wcc_result = wcc.Run(Wcc());
      ASSERT_TRUE(wcc_result.ok()) << wcc_result.status();
      EXPECT_EQ(wcc_result->values, wcc_reference)
          << "seed=" << seed << " sync=" << SyncModeName(config.sync)
          << " combining=" << combining;
    }
  }
}

TEST_P(ModelEquivalenceTest, SenderCombiningPageRankAgreesWithinTolerance) {
  const uint64_t seed = GetParam().seed;
  Graph g = RandomGraph(seed);
  EngineOptions opts;
  opts.model = ComputationModel::kBsp;
  opts.num_workers = 3;
  opts.partitions_per_worker = 2;
  opts.partition_seed = seed;

  std::vector<double> results[2];
  for (bool combining : {false, true}) {
    opts.record_history = !combining;
    Engine<PageRank> engine(&g, opts);
    auto result = engine.Run(PageRank(1e-9));
    ASSERT_TRUE(result.ok()) << result.status();
    results[combining ? 1 : 0] = result->values;
  }
  ASSERT_EQ(results[0].size(), results[1].size());
  for (size_t v = 0; v < results[0].size(); ++v) {
    EXPECT_NEAR(results[0][v], results[1][v], 1e-6) << "vertex " << v;
  }
}

// The per-superstep push/pull switch (docs/PERF.md) is a pure transfer
// strategy: forced push, forced pull, and the density-driven auto mode
// must agree. SSSP and WCC fold through min (order-insensitive and
// exact), so all three modes must be bit-identical.
TEST_P(ModelEquivalenceTest, PushPullSsspAndWccIdentical) {
  const uint64_t seed = GetParam().seed;
  Graph g = RandomGraph(seed);
  auto sssp_reference = ReferenceSssp(g, 0);
  Graph gu = g.Undirected();
  auto wcc_reference = ReferenceWcc(gu);
  Rng rng(seed * 41 + 9);

  EngineOptions opts;
  opts.model = ComputationModel::kBsp;
  opts.sync_mode = SyncMode::kNone;
  opts.num_workers = 2 + static_cast<int>(rng.Uniform(3));
  opts.partitions_per_worker = 1 + static_cast<int>(rng.Uniform(3));
  opts.compute_threads_per_worker = 1 + static_cast<int>(rng.Uniform(3));
  opts.partition_seed = rng.Next();
  for (PushPullMode mode : {PushPullMode::kForcePush,
                            PushPullMode::kForcePull, PushPullMode::kAuto}) {
    opts.push_pull = mode;
    Engine<Sssp> sssp(&g, opts);
    auto sssp_result = sssp.Run(Sssp(0));
    ASSERT_TRUE(sssp_result.ok()) << sssp_result.status();
    EXPECT_TRUE(sssp_result->stats.converged);
    EXPECT_EQ(sssp_result->values, sssp_reference)
        << "seed=" << seed << " mode=" << static_cast<int>(mode);
    Engine<Wcc> wcc(&gu, opts);
    auto wcc_result = wcc.Run(Wcc());
    ASSERT_TRUE(wcc_result.ok()) << wcc_result.status();
    EXPECT_EQ(wcc_result->values, wcc_reference)
        << "seed=" << seed << " mode=" << static_cast<int>(mode);
    const int64_t pulls =
        wcc_result->stats.metrics.at("engine.pull_supersteps");
    if (mode == PushPullMode::kForcePush) {
      EXPECT_EQ(pulls, 0) << "forced push must never capture";
    } else if (mode == PushPullMode::kForcePull) {
      EXPECT_GE(pulls, 1) << "forced pull must capture";
    }
  }
}

// PageRank's sum combiner folds in a different order under pull (CSR
// in-neighbor order vs. arrival order), so push and pull agree to a
// numeric tolerance, not bit-exactly. The auto mode must actually
// engage pull here: every vertex broadcasts every superstep, so the
// frontier density sits at 1000/1000.
TEST_P(ModelEquivalenceTest, PushPullPageRankAgreesWithinTolerance) {
  const uint64_t seed = GetParam().seed;
  Graph g = RandomGraph(seed);
  EngineOptions opts;
  opts.model = ComputationModel::kBsp;
  opts.num_workers = 3;
  opts.partitions_per_worker = 2;
  opts.partition_seed = seed;

  std::vector<double> results[3];
  const PushPullMode modes[] = {PushPullMode::kForcePush,
                                PushPullMode::kForcePull,
                                PushPullMode::kAuto};
  for (int i = 0; i < 3; ++i) {
    opts.push_pull = modes[i];
    Engine<PageRank> engine(&g, opts);
    auto result = engine.Run(PageRank(1e-9));
    ASSERT_TRUE(result.ok()) << result.status();
    results[i] = result->values;
    const int64_t pulls =
        result->stats.metrics.at("engine.pull_supersteps");
    if (modes[i] == PushPullMode::kForcePush) {
      EXPECT_EQ(pulls, 0);
    } else {
      EXPECT_GE(pulls, 1)
          << "dense PageRank must pull under " << static_cast<int>(modes[i]);
    }
  }
  for (size_t v = 0; v < results[0].size(); ++v) {
    EXPECT_NEAR(results[0][v], results[1][v], 1e-6) << "vertex " << v;
    EXPECT_NEAR(results[0][v], results[2][v], 1e-6) << "vertex " << v;
  }
}

// Outside plain BSP the switch must be structurally inert: an AP run
// under a sync technique keeps its fork-handover reads and never pulls,
// even when forced.
TEST_P(ModelEquivalenceTest, PushPullIgnoredOutsideBsp) {
  const uint64_t seed = GetParam().seed;
  Graph g = RandomGraph(seed);
  auto reference = ReferenceSssp(g, 0);

  for (SyncMode sync : {SyncMode::kNone, SyncMode::kVertexLocking}) {
    EngineOptions opts;
    opts.model = ComputationModel::kAsync;
    opts.sync_mode = sync;
    opts.num_workers = 3;
    opts.partition_seed = seed;
    opts.push_pull = PushPullMode::kForcePull;
    Engine<Sssp> engine(&g, opts);
    auto result = engine.Run(Sssp(0));
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->values, reference) << "sync=" << SyncModeName(sync);
    EXPECT_EQ(result->stats.metrics.at("engine.pull_supersteps"), 0)
        << "AP must never capture, sync=" << SyncModeName(sync);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ModelEquivalenceTest,
    testing::Values(Scenario{1}, Scenario{2}, Scenario{3}, Scenario{4},
                    Scenario{5}, Scenario{6}),
    [](const testing::TestParamInfo<Scenario>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace serigraph
