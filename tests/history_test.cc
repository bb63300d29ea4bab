// Tests for the transaction recorder and the C1/C2/1SR checker, using
// both hand-built histories and recorder-driven ones.

#include "verify/history.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"

namespace serigraph {
namespace {

Graph Make(const EdgeList& el) {
  auto g = Graph::FromEdgeList(el);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

/// Convenience builder for synthetic TxnRecords.
TxnRecord Txn(VertexId v, uint64_t start, uint64_t end, uint64_t written,
              std::vector<TxnRecord::Read> reads) {
  TxnRecord rec;
  rec.vertex = v;
  rec.worker = 0;
  rec.superstep = 0;
  rec.start = start;
  rec.end = end;
  rec.written_version = written;
  rec.reads = std::move(reads);
  return rec;
}

TEST(CheckHistoryTest, EmptyHistoryIsSerializable) {
  Graph g = Make(PaperExampleGraph());
  HistoryCheck check = CheckHistory(g, {});
  EXPECT_TRUE(check.ok());
  EXPECT_EQ(check.num_transactions, 0);
}

TEST(CheckHistoryTest, SerialFreshHistoryPasses) {
  // Path v0 - v1 (undirected). v0 writes, then v1 reads it fresh.
  Graph g = Make({2, {{0, 1}, {1, 0}}});
  std::vector<TxnRecord> records;
  records.push_back(Txn(0, 1, 2, 1, {{1, 0, 0}}));
  records.push_back(Txn(1, 3, 4, 1, {{0, 1, 1}}));
  HistoryCheck check = CheckHistory(g, records);
  EXPECT_TRUE(check.ok()) << (check.violation_samples.empty()
                                  ? "?"
                                  : check.violation_samples[0]);
}

TEST(CheckHistoryTest, StaleReadViolatesC1) {
  Graph g = Make({2, {{0, 1}, {1, 0}}});
  std::vector<TxnRecord> records;
  records.push_back(Txn(0, 1, 2, 1, {{1, 0, 0}}));
  // v1 executes after v0 committed version 1 but only saw version 0.
  records.push_back(Txn(1, 3, 4, 1, {{0, 0, 1}}));
  HistoryCheck check = CheckHistory(g, records);
  EXPECT_FALSE(check.c1_fresh_reads);
  EXPECT_EQ(check.c1_violations, 1);
  EXPECT_FALSE(check.ok());
}

TEST(CheckHistoryTest, OverlappingNeighborsViolateC2) {
  Graph g = Make({2, {{0, 1}, {1, 0}}});
  std::vector<TxnRecord> records;
  records.push_back(Txn(0, 1, 5, 1, {{1, 0, 0}}));
  records.push_back(Txn(1, 2, 4, 1, {{0, 0, 0}}));  // inside v0's interval
  HistoryCheck check = CheckHistory(g, records);
  EXPECT_FALSE(check.c2_no_neighbor_overlap);
  EXPECT_GE(check.c2_violations, 1);
}

TEST(CheckHistoryTest, NonNeighborsMayOverlap) {
  // v0 - v1 - v2 path: v0 and v2 are not adjacent, overlap is fine.
  Graph g = Make({3, {{0, 1}, {1, 0}, {1, 2}, {2, 1}}});
  std::vector<TxnRecord> records;
  records.push_back(Txn(0, 1, 5, 1, {{1, 0, 0}}));
  records.push_back(Txn(2, 2, 4, 1, {{1, 0, 0}}));
  HistoryCheck check = CheckHistory(g, records);
  EXPECT_TRUE(check.ok());
}

TEST(CheckHistoryTest, WriteSkewCycleViolates1SR) {
  // Classic write skew on neighbors u=0, v=1: both read the other's
  // initial version (0) and then both write version 1. Serialization
  // graph: T0 -> T1 (T0's read of v precedes v's writer T1) and
  // T1 -> T0 — a cycle. Give them disjoint intervals so C2 passes
  // (C2 would normally prevent this, which is the point of Theorem 1;
  // here we check that the 1SR detector catches it independently).
  Graph g = Make({2, {{0, 1}, {1, 0}}});
  std::vector<TxnRecord> records;
  records.push_back(Txn(0, 1, 2, 1, {{1, 0, 0}}));
  records.push_back(Txn(1, 3, 4, 1, {{0, 0, 0}}));  // stale read of v0
  HistoryCheck check = CheckHistory(g, records);
  EXPECT_FALSE(check.serializable);
}

TEST(CheckHistoryTest, UnpublishedWritesAreReadOnly) {
  Graph g = Make({2, {{0, 1}, {1, 0}}});
  std::vector<TxnRecord> records;
  // Two "init" executions that published nothing (written_version = 0):
  // they must not create writer conflicts.
  records.push_back(Txn(0, 1, 2, 0, {{1, 0, 0}}));
  records.push_back(Txn(1, 3, 4, 0, {{0, 0, 0}}));
  HistoryCheck check = CheckHistory(g, records);
  EXPECT_TRUE(check.ok());
}

// --- recorder ----------------------------------------------------------

TEST(HistoryRecorderTest, VersionsAdvanceOnlyWhenPublished) {
  Graph g = Make({2, {{0, 1}, {1, 0}}});
  HistoryRecorder recorder(&g, 1);
  uint64_t v1 = recorder.OnTxnBegin(0, 0, 0);
  EXPECT_EQ(v1, 1u);
  recorder.OnTxnEnd(0, 0, /*published=*/false);
  EXPECT_EQ(recorder.VersionOf(0), 0u);

  uint64_t v2 = recorder.OnTxnBegin(0, 0, 1);
  EXPECT_EQ(v2, 1u);  // still version 1: nothing was published yet
  recorder.OnTxnEnd(0, 0, /*published=*/true);
  EXPECT_EQ(recorder.VersionOf(0), 1u);
}

TEST(HistoryRecorderTest, DeliverThenReadIsFresh) {
  Graph g = Make({2, {{0, 1}, {1, 0}}});
  HistoryRecorder recorder(&g, 1);
  uint64_t v = recorder.OnTxnBegin(0, 0, 0);
  recorder.OnDeliver(recorder.InEdgeIndex(0, 1), v);
  recorder.OnTxnEnd(0, 0, true);

  recorder.OnTxnBegin(0, 1, 1);
  recorder.OnTxnEnd(0, 1, true);

  auto records = recorder.TakeRecords();
  ASSERT_EQ(records.size(), 2u);
  HistoryCheck check = CheckHistory(g, std::move(records));
  EXPECT_TRUE(check.ok());
}

TEST(HistoryRecorderTest, MissedDeliveryIsStale) {
  Graph g = Make({2, {{0, 1}, {1, 0}}});
  HistoryRecorder recorder(&g, 1);
  recorder.OnTxnBegin(0, 0, 0);
  recorder.OnTxnEnd(0, 0, true);  // published but never delivered to v1
  // A delivery over the other edge (v1 -> v0) does not refresh v1's
  // replica of v0.
  recorder.OnDeliver(recorder.InEdgeIndex(1, 0), 1);

  recorder.OnTxnBegin(0, 1, 1);
  recorder.OnTxnEnd(0, 1, true);

  HistoryCheck check = CheckHistory(g, recorder.TakeRecords());
  EXPECT_FALSE(check.c1_fresh_reads);
}

TEST(HistoryRecorderTest, RecordsCarrySuperstepAndWorker) {
  Graph g = Make({2, {{0, 1}, {1, 0}}});
  HistoryRecorder recorder(&g, 2);
  recorder.OnTxnBegin(1, 0, 7);
  recorder.OnTxnEnd(1, 0, true);
  auto records = recorder.TakeRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].worker, 1);
  EXPECT_EQ(records[0].superstep, 7);
  EXPECT_LT(records[0].start, records[0].end);
}

/// Checks the recorder's out-edge -> in-edge permutation against the
/// definition: the in-edge index of (src -> dst) is dst's in-edge offset
/// plus the position of src in InNeighbors(dst).
void ExpectProvenanceMatchesInNeighbors(const Graph& g) {
  HistoryRecorder recorder(&g, 1);
  const VertexId n = g.num_vertices();
  std::vector<int64_t> in_offset(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    in_offset[v + 1] = in_offset[v] + g.InDegree(v);
  }
  std::vector<int> hits(static_cast<size_t>(g.num_edges()), 0);
  for (VertexId src = 0; src < n; ++src) {
    const auto out = g.OutNeighbors(src);
    const auto provenance = recorder.ProvenanceOfOutEdges(src);
    ASSERT_EQ(provenance.size(), out.size()) << "src " << src;
    for (size_t i = 0; i < out.size(); ++i) {
      const VertexId dst = out[i];
      const auto in = g.InNeighbors(dst);
      const auto pos = std::find(in.begin(), in.end(), src) - in.begin();
      ASSERT_LT(pos, static_cast<int64_t>(in.size()));
      EXPECT_EQ(provenance[i], in_offset[dst] + pos)
          << "edge " << src << " -> " << dst;
      EXPECT_EQ(recorder.InEdgeIndex(src, dst), provenance[i]);
      ++hits[static_cast<size_t>(provenance[i])];
    }
  }
  // A permutation: every in-edge is the image of exactly one out-edge.
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1),
            static_cast<int64_t>(hits.size()));
}

TEST(HistoryRecorderTest, ProvenanceMapsEveryOutEdgeToItsInEdge) {
  Graph power = Make(PowerLawChungLu(3000, 8.0, 2.1, 7));
  ASSERT_GT(power.num_edges(), 0);
  ExpectProvenanceMatchesInNeighbors(power);
  ExpectProvenanceMatchesInNeighbors(power.Undirected());
  // Vertices 0, 5 and 9 have no edges at all; 4 only sends, 6 only
  // receives.
  Graph isolated = Make(
      {10, {{1, 2}, {2, 1}, {3, 7}, {7, 8}, {8, 3}, {4, 6}, {1, 8}}});
  ExpectProvenanceMatchesInNeighbors(isolated);
}

// --- checker equivalence ------------------------------------------------
//
// The map-based checker CheckHistory used before it moved to flat
// arrays, kept verbatim as the oracle: the flat checker must reach the
// same verdicts with the same counts and samples on any history.

void OracleAddViolation(HistoryCheck* check, const std::string& text) {
  if (check->violation_samples.size() < 8) {
    check->violation_samples.push_back(text);
  }
}

HistoryCheck OracleCheckHistory(const Graph& graph,
                                std::vector<TxnRecord> records) {
  HistoryCheck check;
  check.num_transactions = static_cast<int64_t>(records.size());

  // --- Condition C1: every read fresh. -----------------------------------
  for (const TxnRecord& rec : records) {
    for (const TxnRecord::Read& read : rec.reads) {
      if (read.seen_version != read.current_version) {
        check.c1_fresh_reads = false;
        ++check.c1_violations;
        if (check.c1_violations <= 2) {
          std::ostringstream os;
          os << "C1: txn on v" << rec.vertex << " (superstep "
             << rec.superstep << ") read v" << read.neighbor << " at version "
             << read.seen_version << " but primary was at "
             << read.current_version;
          OracleAddViolation(&check, os.str());
        }
      }
    }
  }

  // --- Condition C2: no neighboring transactions overlap. ----------------
  // Intervals per vertex, sorted by start (records are start-sorted).
  std::vector<std::vector<const TxnRecord*>> by_vertex(graph.num_vertices());
  for (const TxnRecord& rec : records) {
    by_vertex[rec.vertex].push_back(&rec);
  }
  auto overlaps = [&](VertexId a, VertexId b) -> int64_t {
    int64_t count = 0;
    const auto& ta = by_vertex[a];
    const auto& tb = by_vertex[b];
    size_t j = 0;
    for (const TxnRecord* ra : ta) {
      while (j < tb.size() && tb[j]->end < ra->start) ++j;
      for (size_t k = j; k < tb.size() && tb[k]->start < ra->end; ++k) {
        if (ra->start < tb[k]->end && tb[k]->start < ra->end) {
          ++count;
          std::ostringstream os;
          os << "C2: txns on neighbors v" << a << " [" << ra->start << ","
             << ra->end << "] and v" << b << " [" << tb[k]->start << ","
             << tb[k]->end << "] overlap";
          OracleAddViolation(&check, os.str());
        }
      }
    }
    return count;
  };
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (VertexId u : graph.OutNeighbors(v)) {
      if (u <= v) continue;  // each unordered pair once
      int64_t c = overlaps(v, u);
      if (c > 0) {
        check.c2_no_neighbor_overlap = false;
        check.c2_violations += c;
      }
    }
  }

  // --- 1SR: serialization-graph acyclicity. ------------------------------
  // Writers are totally ordered per vertex by version. Dependencies:
  //   WR: writer of (u, k) -> reader that saw (u, k)
  //   RW: reader that saw (u, k) -> writer of (u, k+1)
  //   WW: writer of (u, k) -> writer of (u, k+1)
  const size_t n_txn = records.size();
  std::unordered_map<uint64_t, size_t> writer_index;  // (vertex,ver) -> txn
  auto key = [](VertexId v, uint64_t ver) {
    return static_cast<uint64_t>(v) * 1000000007ULL + ver;
  };
  for (size_t i = 0; i < n_txn; ++i) {
    if (records[i].written_version == 0) continue;  // unpublished write
    writer_index[key(records[i].vertex, records[i].written_version)] = i;
  }
  std::vector<std::vector<uint32_t>> adj(n_txn);
  std::vector<uint32_t> indegree(n_txn, 0);
  auto add_edge = [&](size_t from, size_t to) {
    if (from == to) return;
    adj[from].push_back(static_cast<uint32_t>(to));
    ++indegree[to];
  };
  for (size_t i = 0; i < n_txn; ++i) {
    const TxnRecord& rec = records[i];
    // WW chain (only for published writes).
    if (rec.written_version > 0) {
      auto next_w =
          writer_index.find(key(rec.vertex, rec.written_version + 1));
      if (next_w != writer_index.end()) add_edge(i, next_w->second);
    }
    // WR / RW edges from this txn's reads.
    for (const TxnRecord::Read& read : rec.reads) {
      if (read.seen_version > 0) {
        auto w = writer_index.find(key(read.neighbor, read.seen_version));
        if (w != writer_index.end()) add_edge(w->second, i);
      }
      auto w_next =
          writer_index.find(key(read.neighbor, read.seen_version + 1));
      if (w_next != writer_index.end()) add_edge(i, w_next->second);
    }
  }
  // Kahn's algorithm; a leftover node means a cycle.
  std::vector<uint32_t> queue;
  queue.reserve(n_txn);
  for (size_t i = 0; i < n_txn; ++i) {
    if (indegree[i] == 0) queue.push_back(static_cast<uint32_t>(i));
  }
  size_t seen = 0;
  while (seen < queue.size()) {
    uint32_t node = queue[seen++];
    for (uint32_t next : adj[node]) {
      if (--indegree[next] == 0) queue.push_back(next);
    }
  }
  if (seen != n_txn) {
    check.serializable = false;
    OracleAddViolation(&check, "1SR: serialization graph contains a cycle (" +
                             std::to_string(n_txn - seen) +
                             " transactions involved)");
  }

  return check;
}

/// A random history on a random small graph. Versions per vertex mostly
/// advance by one but may repeat (duplicated writer versions), skip, or
/// stay unpublished; reads see the latest version, an older one, or one
/// that was never written; intervals are disjoint or overlap at random.
struct RandomHistory {
  Graph graph;
  std::vector<TxnRecord> records;
};

RandomHistory MakeRandomHistory(uint64_t seed) {
  Rng rng(seed);
  const VertexId n = rng.UniformInt(2, 8);
  EdgeList el{n, {}};
  const int64_t m = rng.UniformInt(1, n * (n - 1));
  for (int64_t i = 0; i < m; ++i) {
    el.edges.push_back({rng.UniformInt(0, n - 1), rng.UniformInt(0, n - 1)});
  }
  Graph graph = Make(el);
  if (rng.Uniform(2) == 0) graph = graph.Undirected();

  const bool serial = rng.Uniform(3) == 0;  // disjoint intervals only
  const int num_txns = static_cast<int>(rng.UniformInt(0, 24));
  std::vector<uint64_t> published(static_cast<size_t>(n), 0);
  std::vector<TxnRecord> records;
  uint64_t clock = 1;
  for (int t = 0; t < num_txns; ++t) {
    TxnRecord rec;
    rec.vertex = rng.UniformInt(0, n - 1);
    rec.worker = static_cast<WorkerId>(rng.Uniform(2));
    rec.superstep = t / 4;
    if (serial) {
      rec.start = clock++;
      rec.end = clock++;
    } else {
      rec.start = 1 + rng.Uniform(3 * static_cast<uint64_t>(num_txns));
      rec.end = rec.start + 1 + rng.Uniform(6);
    }
    uint64_t& last = published[static_cast<size_t>(rec.vertex)];
    switch (rng.Uniform(10)) {
      case 0:
      case 1:
        rec.written_version = 0;  // unpublished
        break;
      case 2:
        rec.written_version = last == 0 ? 1 : last;  // duplicated version
        last = rec.written_version;
        break;
      case 3:
        rec.written_version = last + 2;  // skips a version
        last = rec.written_version;
        break;
      default:
        rec.written_version = ++last;
    }
    auto add_read = [&](VertexId u) {
      const uint64_t latest = published[static_cast<size_t>(u)];
      TxnRecord::Read read;
      read.neighbor = u;
      // Up to two past the latest write: versions never written.
      read.seen_version = rng.Uniform(latest + 3);
      read.current_version = rng.Uniform(4) == 0 ? latest : read.seen_version;
      rec.reads.push_back(read);
    };
    for (VertexId u : graph.InNeighbors(rec.vertex)) {
      if (rng.Uniform(5) != 0) add_read(u);
    }
    if (rng.Uniform(6) == 0) add_read(rng.UniformInt(0, n - 1));
    records.push_back(std::move(rec));
  }
  if (rng.Uniform(4) != 0) {  // TakeRecords order most of the time
    std::stable_sort(records.begin(), records.end(),
                     [](const TxnRecord& a, const TxnRecord& b) {
                       return a.start < b.start;
                     });
  }
  return {std::move(graph), std::move(records)};
}

TEST(CheckHistoryTest, FlatCheckerMatchesMapBasedOracle) {
  constexpr uint64_t kHistories = 2000;
  int64_t stale = 0, overlapping = 0, cyclic = 0, clean = 0;
  for (uint64_t seed = 1; seed <= kHistories; ++seed) {
    RandomHistory h = MakeRandomHistory(seed);
    const HistoryCheck want = OracleCheckHistory(h.graph, h.records);
    const HistoryCheck got = CheckHistory(h.graph, h.records);
    ASSERT_EQ(got.num_transactions, want.num_transactions) << "seed " << seed;
    ASSERT_EQ(got.c1_fresh_reads, want.c1_fresh_reads) << "seed " << seed;
    ASSERT_EQ(got.c1_violations, want.c1_violations) << "seed " << seed;
    ASSERT_EQ(got.c2_no_neighbor_overlap, want.c2_no_neighbor_overlap)
        << "seed " << seed;
    ASSERT_EQ(got.c2_violations, want.c2_violations) << "seed " << seed;
    ASSERT_EQ(got.serializable, want.serializable) << "seed " << seed;
    ASSERT_EQ(got.violation_samples, want.violation_samples)
        << "seed " << seed;
    stale += want.c1_fresh_reads ? 0 : 1;
    overlapping += want.c2_no_neighbor_overlap ? 0 : 1;
    cyclic += want.serializable ? 0 : 1;
    clean += want.ok() && want.num_transactions > 0 ? 1 : 0;
  }
  // The generator must reach every verdict often enough to matter.
  EXPECT_GE(stale, 500);
  EXPECT_GE(overlapping, 300);
  EXPECT_GE(cyclic, 300);
  EXPECT_GE(clean, 100);
}

}  // namespace
}  // namespace serigraph
