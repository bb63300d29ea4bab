// Configuration matrix: fault-injected, recovering, checkpointed,
// history-recording, single-worker and constrained-BSP runs execute the
// same frontier walk, pull switch and send staging as the plain runs, so
// every (model x technique x algorithm x push/pull x recorder x fault)
// cell must land on the sequential oracle. A fault cell checkpoints every
// kCheckpointEvery supersteps and crashes a worker before a barrier, so
// the run restores from a frame and resumes. BSP/none fault cells also
// check that pull runs across the recovery and that no superstep whose
// barrier writes a checkpoint (a cut) captured broadcasts.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "pregel/engine.h"
#include "verify/history.h"

namespace serigraph {
namespace {

constexpr int kCheckpointEvery = 2;

enum class Algo { kSssp, kWcc };

struct Cell {
  ComputationModel model;
  SyncMode sync;
  Algo algo;
  PushPullMode push_pull;
  bool recorder;
  bool fault;
  int workers;
};

std::string CellName(const testing::TestParamInfo<Cell>& info) {
  const Cell& c = info.param;
  std::string name = c.model == ComputationModel::kBsp ? "bsp_" : "ap_";
  for (char ch : std::string(SyncModeName(c.sync))) {
    name += ch == '-' ? '_' : ch;
  }
  name += c.algo == Algo::kSssp ? "_sssp" : "_wcc";
  if (c.model == ComputationModel::kBsp && c.sync == SyncMode::kNone) {
    name += c.push_pull == PushPullMode::kForcePush   ? "_push"
            : c.push_pull == PushPullMode::kForcePull ? "_pull"
                                                      : "_auto";
  }
  if (c.recorder) name += "_recorder";
  if (c.fault) name += "_fault";
  return name + "_w" + std::to_string(c.workers);
}

std::vector<Cell> MatrixCells() {
  struct Placement {
    ComputationModel model;
    SyncMode sync;
  };
  const Placement placements[] = {
      {ComputationModel::kBsp, SyncMode::kNone},
      {ComputationModel::kBsp, SyncMode::kConstrainedBspLocking},
      {ComputationModel::kAsync, SyncMode::kNone},
      {ComputationModel::kAsync, SyncMode::kSingleLayerToken},
      {ComputationModel::kAsync, SyncMode::kDualLayerToken},
      {ComputationModel::kAsync, SyncMode::kVertexLocking},
      {ComputationModel::kAsync, SyncMode::kPartitionLocking},
  };
  std::vector<Cell> cells;
  for (const Placement& p : placements) {
    const bool switchable =
        p.model == ComputationModel::kBsp && p.sync == SyncMode::kNone;
    std::vector<PushPullMode> modes = {PushPullMode::kAuto};
    if (switchable) {
      modes = {PushPullMode::kForcePush, PushPullMode::kForcePull,
               PushPullMode::kAuto};
    }
    for (Algo algo : {Algo::kSssp, Algo::kWcc}) {
      for (PushPullMode mode : modes) {
        for (bool recorder : {false, true}) {
          for (bool fault : {false, true}) {
            cells.push_back({p.model, p.sync, algo, mode, recorder, fault, 3});
          }
        }
      }
    }
  }
  // Single-worker runs stage too: every BSP send goes through the
  // partition bins.
  for (const Placement& p : {placements[0], placements[1], placements[2]}) {
    for (Algo algo : {Algo::kSssp, Algo::kWcc}) {
      for (bool fault : {false, true}) {
        cells.push_back(
            {p.model, p.sync, algo, PushPullMode::kAuto, false, fault, 1});
      }
    }
  }
  return cells;
}

/// Undirected (so C2's neighbor relation is symmetric), sparse enough
/// for several WCC components, and deep enough that every cell runs past
/// the crash's third barrier.
const Graph& MatrixGraph() {
  static const Graph graph = [] {
    auto g = Graph::FromEdgeList(ErdosRenyi(300, 420, 5));
    SG_CHECK(g.ok());
    return g->Undirected();
  }();
  return graph;
}

EngineOptions CellOptions(const Cell& cell) {
  EngineOptions opts;
  opts.model = cell.model;
  opts.sync_mode = cell.sync;
  opts.num_workers = cell.workers;
  opts.partitions_per_worker = 2;
  opts.compute_threads_per_worker = 2;
  opts.push_pull = cell.push_pull;
  opts.record_history = cell.recorder;
  opts.max_supersteps = 20000;
  if (cell.fault) {
    opts.checkpoint_every = kCheckpointEvery;
    opts.checkpoint_dir = testing::TempDir();
    opts.fault.recover = true;
    opts.fault.recovery_backoff_ms = 1;
    // The last worker dies before its third barrier, after the frame
    // written at the end of superstep 1.
    FaultEvent crash;
    crash.action = FaultAction::kCrash;
    crash.point = "engine.pre_barrier";
    crash.worker = cell.workers - 1;
    crash.hit = 3;
    opts.fault.plan.events.push_back(crash);
  }
  return opts;
}

bool IsCut(int superstep) { return (superstep + 1) % kCheckpointEvery == 0; }

/// Pull under checkpoints and recovery: forced pull captures exactly on
/// the supersteps that are not cuts, in every attempt; no mode captures
/// on a cut.
void ExpectPullAcrossCuts(const Cell& cell, const RunStats& stats) {
  int64_t captures = 0;
  for (const SuperstepSample& row : stats.timeline) {
    const bool captured = (row.pull_mode & 1) != 0;
    captures += captured ? 1 : 0;
    EXPECT_FALSE(captured && IsCut(row.superstep))
        << "superstep " << row.superstep << " worker " << row.worker
        << " captured broadcasts at a checkpoint cut";
    if (cell.push_pull == PushPullMode::kForcePull) {
      EXPECT_EQ(captured, !IsCut(row.superstep))
          << "superstep " << row.superstep << " worker " << row.worker;
    }
  }
  if (cell.push_pull == PushPullMode::kForcePull) {
    EXPECT_GE(stats.Metric("engine.pull_supersteps"), 1);
    EXPECT_GT(captures, 0);
  }
}

class EngineMatrixTest : public testing::TestWithParam<Cell> {};

template <typename Program>
void RunCell(const Cell& cell, const Program& program,
             const std::vector<int64_t>& expected) {
  const Graph& graph = MatrixGraph();
  Engine<Program> engine(&graph, CellOptions(cell));
  auto result = engine.Run(program);
  ASSERT_TRUE(result.ok()) << result.status();
  const RunStats& stats = result->stats;
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(result->values, expected);
  if (cell.fault) {
    EXPECT_GE(stats.Metric("fault.events_fired"), 1);
    EXPECT_GE(stats.recovery_attempts, 1);
  }
  const bool pulls = cell.model == ComputationModel::kBsp &&
                     cell.sync == SyncMode::kNone && !cell.recorder;
  if (pulls && cell.push_pull == PushPullMode::kForcePull) {
    EXPECT_GE(stats.Metric("engine.pull_supersteps"), 1);
  }
  if (pulls && cell.fault) ExpectPullAcrossCuts(cell, stats);
  if (cell.recorder && cell.sync != SyncMode::kNone) {
    const HistoryCheck check =
        CheckHistory(graph, result->history->TakeRecords());
    EXPECT_GT(check.num_transactions, 0);
    EXPECT_TRUE(check.c1_fresh_reads)
        << check.c1_violations << " C1 violations; first: "
        << (check.violation_samples.empty() ? "?"
                                            : check.violation_samples[0]);
    EXPECT_TRUE(check.c2_no_neighbor_overlap)
        << check.c2_violations << " C2 violations";
    EXPECT_TRUE(check.serializable);
  }
}

TEST_P(EngineMatrixTest, MatchesSequentialOracle) {
  const Cell& cell = GetParam();
  const Graph& graph = MatrixGraph();
  if (cell.algo == Algo::kSssp) {
    static const std::vector<int64_t> kSsspReference =
        ReferenceSssp(graph, 0);
    RunCell(cell, Sssp(0), kSsspReference);
  } else {
    static const std::vector<int64_t> kWccReference = ReferenceWcc(graph);
    RunCell(cell, Wcc(), kWccReference);
  }
}

INSTANTIATE_TEST_SUITE_P(Cells, EngineMatrixTest,
                         testing::ValuesIn(MatrixCells()), CellName);

// PageRank's sum folds in a different order under pull and across a
// restore, so a crashed, recovered run that pulls is compared with a
// fault-free forced-push run within a tolerance.
TEST(EngineMatrixRecoveryTest, PageRankWithPullMatchesPush) {
  const Graph& graph = MatrixGraph();
  // CellOptions ignores the algorithm field.
  const Cell push = {ComputationModel::kBsp, SyncMode::kNone, Algo::kSssp,
                     PushPullMode::kForcePush, false, false, 3};
  Engine<PageRank> reference_engine(&graph, CellOptions(push));
  auto reference = reference_engine.Run(PageRank(1e-9));
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(reference->stats.Metric("engine.pull_supersteps"), 0);

  const Cell recovered = {ComputationModel::kBsp, SyncMode::kNone,
                          Algo::kSssp, PushPullMode::kAuto, false, true, 3};
  Engine<PageRank> engine(&graph, CellOptions(recovered));
  auto result = engine.Run(PageRank(1e-9));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->stats.recovery_attempts, 1);
  EXPECT_GE(result->stats.Metric("engine.pull_supersteps"), 1);
  ExpectPullAcrossCuts(recovered, result->stats);
  ASSERT_EQ(result->values.size(), reference->values.size());
  for (size_t v = 0; v < reference->values.size(); ++v) {
    EXPECT_NEAR(result->values[v], reference->values[v], 1e-6)
        << "vertex " << v;
  }
}

// Sums what it receives. Vertex 0 stays active until superstep kWake,
// when it wakes every vertex with a point send; each woken vertex then
// broadcasts 1. Under kAuto superstep kWake is sparse (push) and
// kWake + 1 dense (pull).
struct WakeAndBroadcast {
  static constexpr int kWake = 3;
  using VertexValue = int64_t;
  using Message = int64_t;
  static Message Combine(const Message& a, const Message& b) { return a + b; }
  static constexpr Message kCombineIdentity = 0;
  VertexValue InitialValue(VertexId, const Graph&) const { return 0; }
  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const Message> messages) const {
    for (Message m : messages) ctx.set_value(ctx.value() + m);
    if (ctx.id() == 0 && ctx.superstep() < kWake) return;
    if (ctx.id() == 0 && ctx.superstep() == kWake) {
      for (VertexId v = 0; v < ctx.num_vertices(); ++v) ctx.SendTo(v, 0);
    }
    if (ctx.superstep() == kWake + 1) ctx.SendToAllOutNeighbors(1);
    ctx.VoteToHalt();
  }
};

// The crashed attempt captures in superstep kWake + 1 and dies before
// the barrier; recovery resumes at the frame of superstep kWake, which
// pushes. Its pull superstep must start from an empty capture buffer, or
// the dead attempt's captures fold into the sums twice.
TEST(EngineMatrixRecoveryTest, RecoveredAttemptCapturesIntoACleanBuffer) {
  const Graph& graph = MatrixGraph();
  EngineOptions opts;
  opts.model = ComputationModel::kBsp;
  opts.num_workers = 3;
  opts.partitions_per_worker = 2;
  opts.push_pull = PushPullMode::kForcePush;
  Engine<WakeAndBroadcast> reference_engine(&graph, opts);
  auto reference = reference_engine.Run(WakeAndBroadcast());
  ASSERT_TRUE(reference.ok()) << reference.status();

  opts.push_pull = PushPullMode::kAuto;
  opts.checkpoint_every = WakeAndBroadcast::kWake;
  opts.checkpoint_dir = testing::TempDir();
  opts.fault.recover = true;
  opts.fault.recovery_backoff_ms = 1;
  FaultEvent crash;
  crash.action = FaultAction::kCrash;
  crash.point = "engine.pre_barrier";
  crash.worker = 1;
  crash.hit = WakeAndBroadcast::kWake + 2;
  opts.fault.plan.events.push_back(crash);
  Engine<WakeAndBroadcast> engine(&graph, opts);
  auto result = engine.Run(WakeAndBroadcast());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->stats.recovery_attempts, 1);
  EXPECT_GE(result->stats.Metric("engine.pull_supersteps"), 2);
  EXPECT_EQ(result->values, reference->values);
}

}  // namespace
}  // namespace serigraph
