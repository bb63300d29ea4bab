// Executable version of paper Section 3.5: the computation models
// themselves do not guarantee fresh reads even under *serial* execution.
// BSP hides messages until the next superstep, so a single-threaded,
// single-worker run still produces C1 violations; AP fixes local
// staleness (eager local replicas) but without a synchronization
// technique remote replicas are updated lazily.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "algos/coloring.h"
#include "graph/generators.h"
#include "pregel/engine.h"
#include "verify/history.h"

namespace serigraph {
namespace {

Graph Make(const EdgeList& el) {
  auto g = Graph::FromEdgeList(el);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

TEST(StalenessTest, BspHasStaleReadsEvenWhenSerial) {
  // One worker, one compute thread: the execution is fully serial, yet
  // BSP's next-superstep message visibility makes neighbors read stale
  // replicas (paper Section 3.5: "both m-boundary and m-internal
  // vertices suffer stale reads under a serial execution").
  Graph g = Make(PaperExampleGraph());
  EngineOptions opts;
  opts.model = ComputationModel::kBsp;
  opts.num_workers = 1;
  opts.compute_threads_per_worker = 1;
  opts.record_history = true;
  opts.max_supersteps = 6;
  Engine<RepairColoring> engine(&g, opts);
  auto result = engine.Run(RepairColoring());
  ASSERT_TRUE(result.ok());
  HistoryCheck check = CheckHistory(g, result->history->TakeRecords());
  EXPECT_FALSE(check.c1_fresh_reads);
  // Serial execution: intervals never overlap, so C2 holds — staleness
  // is purely a replica-freshness problem.
  EXPECT_TRUE(check.c2_no_neighbor_overlap);
}

TEST(StalenessTest, BspReadsLagExactlyOneSuperstepOnEverySendPath) {
  // Several workers and compute threads: local sends go through the
  // partition bins, remote ones through send staging and the wire, each
  // carrying its (in-edge, version) provenance to the recorder. Whatever
  // the path, a BSP read sees exactly the neighbor's latest write from
  // an earlier superstep (RepairColoring broadcasts on every write).
  Graph g = Make(PowerLawChungLu(300, 6.0, 2.2, 5)).Undirected();
  EngineOptions opts;
  opts.model = ComputationModel::kBsp;
  opts.num_workers = 3;
  opts.compute_threads_per_worker = 2;
  opts.record_history = true;
  opts.max_supersteps = 8;
  Engine<RepairColoring> engine(&g, opts);
  auto result = engine.Run(RepairColoring());
  ASSERT_TRUE(result.ok());
  const History history = result->history->TakeRecords();
  // Published writes per vertex: (superstep, version).
  std::vector<std::vector<std::pair<int, uint32_t>>> writes(
      static_cast<size_t>(g.num_vertices()));
  for (int64_t i = 0; i < history.size(); ++i) {
    const TxnHeader& rec = history[i];
    if (rec.written_version == 0) continue;
    writes[rec.vertex].emplace_back(rec.superstep, rec.written_version);
  }
  int64_t reads = 0;
  int64_t seen_nonzero = 0;
  for (int64_t i = 0; i < history.size(); ++i) {
    const TxnHeader& rec = history[i];
    const auto in = g.InNeighbors(rec.vertex);
    const auto rec_reads = History::Reads(g, rec);
    for (size_t k = 0; k < rec_reads.size(); ++k) {
      uint32_t expected = 0;
      for (const auto& [superstep, version] : writes[in[k]]) {
        if (superstep < rec.superstep) expected = std::max(expected, version);
      }
      ASSERT_EQ(rec_reads[k].seen_version, expected)
          << "v" << rec.vertex << " reading v" << in[k] << " in superstep "
          << rec.superstep;
      ++reads;
      seen_nonzero += rec_reads[k].seen_version > 0 ? 1 : 0;
    }
  }
  EXPECT_GT(reads, 1000);
  EXPECT_GT(seen_nonzero, reads / 2);
  EXPECT_GT(result->stats.metrics.at("store.bin_flushes"), 0);
}

TEST(StalenessTest, ApSerialOneWorkerIsActuallySerializable) {
  // With a single worker, AP updates all replicas eagerly (every message
  // is local), so a serial AP execution has fresh reads: this is why the
  // techniques only need to add coordination for *remote* replicas.
  Graph g = Make(PaperExampleGraph());
  EngineOptions opts;
  opts.model = ComputationModel::kAsync;
  opts.num_workers = 1;
  opts.compute_threads_per_worker = 1;
  opts.record_history = true;
  opts.max_supersteps = 100;
  Engine<RepairColoring> engine(&g, opts);
  auto result = engine.Run(RepairColoring());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.converged);
  HistoryCheck check = CheckHistory(g, result->history->TakeRecords());
  EXPECT_TRUE(check.ok()) << (check.violation_samples.empty()
                                  ? "?"
                                  : check.violation_samples[0]);
}

TEST(StalenessTest, SerializableTechniqueFixesBspStyleStaleness) {
  // Same graph, AP + partition locking, multiple workers: fresh reads.
  Graph g = Make(PaperExampleGraph());
  EngineOptions opts;
  opts.sync_mode = SyncMode::kPartitionLocking;
  opts.num_workers = 2;
  opts.record_history = true;
  Engine<RepairColoring> engine(&g, opts);
  auto result = engine.Run(RepairColoring());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.converged);
  HistoryCheck check = CheckHistory(g, result->history->TakeRecords());
  EXPECT_TRUE(check.ok());
  EXPECT_TRUE(
      IsProperColoring(g, RepairColoringColors(result->values)));
}

}  // namespace
}  // namespace serigraph
