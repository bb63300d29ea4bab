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

/// Appends a synthetic transaction on `v` to `history`; `reads` holds
/// (seen, current) per in-neighbor of `v`, in InNeighbors order.
void Txn(History* history, const Graph& g, VertexId v, uint64_t start,
         uint64_t end, uint32_t written, std::vector<TxnRead> reads) {
  TxnHeader header;
  header.vertex = static_cast<NeighborId>(v);
  header.worker = 0;
  header.superstep = 0;
  header.start = start;
  header.end = end;
  header.written_version = written;
  history->Append(g, header, reads);
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
  History history;
  Txn(&history, g, 0, 1, 2, 1, {{0, 0}});
  Txn(&history, g, 1, 3, 4, 1, {{1, 1}});
  HistoryCheck check = CheckHistory(g, history);
  EXPECT_TRUE(check.ok()) << (check.violation_samples.empty()
                                  ? "?"
                                  : check.violation_samples[0]);
}

TEST(CheckHistoryTest, StaleReadViolatesC1) {
  Graph g = Make({2, {{0, 1}, {1, 0}}});
  History history;
  Txn(&history, g, 0, 1, 2, 1, {{0, 0}});
  // v1 executes after v0 committed version 1 but only saw version 0.
  Txn(&history, g, 1, 3, 4, 1, {{0, 1}});
  HistoryCheck check = CheckHistory(g, history);
  EXPECT_FALSE(check.c1_fresh_reads);
  EXPECT_EQ(check.c1_violations, 1);
  EXPECT_FALSE(check.ok());
}

TEST(CheckHistoryTest, OverlappingNeighborsViolateC2) {
  Graph g = Make({2, {{0, 1}, {1, 0}}});
  History history;
  Txn(&history, g, 0, 1, 5, 1, {{0, 0}});
  Txn(&history, g, 1, 2, 4, 1, {{0, 0}});  // inside v0's interval
  HistoryCheck check = CheckHistory(g, history);
  EXPECT_FALSE(check.c2_no_neighbor_overlap);
  EXPECT_GE(check.c2_violations, 1);
}

TEST(CheckHistoryTest, OneWayEdgeFromTheHigherIdIsChecked) {
  // A single edge joins v0 and v1, in either direction: their
  // overlapping transactions violate C2 both ways round.
  for (const Edge edge : {Edge{1, 0}, Edge{0, 1}}) {
    Graph g = Make({2, {edge}});
    History history;
    Txn(&history, g, 0, 1, 5, 1,
        std::vector<TxnRead>(static_cast<size_t>(g.InDegree(0))));
    Txn(&history, g, 1, 2, 4, 1,
        std::vector<TxnRead>(static_cast<size_t>(g.InDegree(1))));
    HistoryCheck check = CheckHistory(g, history);
    EXPECT_FALSE(check.c2_no_neighbor_overlap)
        << "edge " << edge.src << " -> " << edge.dst;
    EXPECT_EQ(check.c2_violations, 1);
  }
}

TEST(CheckHistoryTest, NonNeighborsMayOverlap) {
  // v0 - v1 - v2 path: v0 and v2 are not adjacent, overlap is fine.
  Graph g = Make({3, {{0, 1}, {1, 0}, {1, 2}, {2, 1}}});
  History history;
  Txn(&history, g, 0, 1, 5, 1, {{0, 0}});
  Txn(&history, g, 2, 2, 4, 1, {{0, 0}});
  HistoryCheck check = CheckHistory(g, history);
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
  History history;
  Txn(&history, g, 0, 1, 2, 1, {{0, 0}});
  Txn(&history, g, 1, 3, 4, 1, {{0, 0}});  // stale read of v0
  HistoryCheck check = CheckHistory(g, history);
  EXPECT_FALSE(check.serializable);
}

TEST(CheckHistoryTest, UnpublishedWritesAreReadOnly) {
  Graph g = Make({2, {{0, 1}, {1, 0}}});
  History history;
  // Two "init" executions that published nothing (written_version = 0):
  // they must not create writer conflicts.
  Txn(&history, g, 0, 1, 2, 0, {{0, 0}});
  Txn(&history, g, 1, 3, 4, 0, {{0, 0}});
  HistoryCheck check = CheckHistory(g, history);
  EXPECT_TRUE(check.ok());
}

// --- recorder ----------------------------------------------------------

TEST(HistoryRecorderTest, VersionsAdvanceOnlyWhenPublished) {
  Graph g = Make({2, {{0, 1}, {1, 0}}});
  HistoryRecorder recorder(&g, 1);
  HistoryRecorder::Txn t1 = recorder.OnTxnBegin(0, 0, 0);
  EXPECT_EQ(t1.version, 1u);
  recorder.OnTxnEnd(t1, /*published=*/false);
  EXPECT_EQ(recorder.VersionOf(0), 0u);

  HistoryRecorder::Txn t2 = recorder.OnTxnBegin(0, 0, 1);
  EXPECT_EQ(t2.version, 1u);  // still version 1: nothing was published yet
  recorder.OnTxnEnd(t2, /*published=*/true);
  EXPECT_EQ(recorder.VersionOf(0), 1u);
}

TEST(HistoryRecorderTest, DeliverThenReadIsFresh) {
  Graph g = Make({2, {{0, 1}, {1, 0}}});
  HistoryRecorder recorder(&g, 1);
  HistoryRecorder::Txn t = recorder.OnTxnBegin(0, 0, 0);
  recorder.OnDeliver(recorder.InEdgeIndex(0, 1), t.version);
  recorder.OnTxnEnd(t, true);

  recorder.OnTxnEnd(recorder.OnTxnBegin(0, 1, 1), true);

  const History history = recorder.TakeRecords();
  ASSERT_EQ(history.size(), 2);
  HistoryCheck check = CheckHistory(g, history);
  EXPECT_TRUE(check.ok());
}

TEST(HistoryRecorderTest, MissedDeliveryIsStale) {
  Graph g = Make({2, {{0, 1}, {1, 0}}});
  HistoryRecorder recorder(&g, 1);
  // Published but never delivered to v1.
  recorder.OnTxnEnd(recorder.OnTxnBegin(0, 0, 0), true);
  // A delivery over the other edge (v1 -> v0) does not refresh v1's
  // replica of v0.
  recorder.OnDeliver(recorder.InEdgeIndex(1, 0), 1);

  recorder.OnTxnEnd(recorder.OnTxnBegin(0, 1, 1), true);

  HistoryCheck check = CheckHistory(g, recorder.TakeRecords());
  EXPECT_FALSE(check.c1_fresh_reads);
}

TEST(HistoryRecorderTest, RecordsCarrySuperstepAndWorker) {
  Graph g = Make({2, {{0, 1}, {1, 0}}});
  HistoryRecorder recorder(&g, 2);
  recorder.OnTxnEnd(recorder.OnTxnBegin(1, 0, 7), true);
  const History history = recorder.TakeRecords();
  ASSERT_EQ(history.size(), 1);
  EXPECT_EQ(history[0].worker, 1);
  EXPECT_EQ(history[0].superstep, 7);
  EXPECT_LT(history[0].start, history[0].end);
}

/// `sweeps` rounds of one execution per vertex, worker v % 2, the way a
/// serial AP run would go: an execution that publishes (most do) delivers
/// its write over every out-edge before the next one starts.
void RecordSweeps(HistoryRecorder& recorder, const Graph& g,
                  int first_superstep, int sweeps) {
  for (int s = first_superstep; s < first_superstep + sweeps; ++s) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const HistoryRecorder::Txn txn =
          recorder.OnTxnBegin(static_cast<WorkerId>(v % 2), v, s);
      const bool publish = (v + s) % 3 != 0;
      if (publish) {
        for (const uint32_t in_edge : recorder.ProvenanceOfOutEdges(v)) {
          recorder.OnDeliver(in_edge, txn.version);
        }
      }
      recorder.OnTxnEnd(txn, publish);
    }
  }
}

void ExpectSameHistory(const Graph& g, const History& got,
                       const History& want) {
  ASSERT_EQ(got.size(), want.size());
  for (int64_t i = 0; i < got.size(); ++i) {
    const TxnHeader& a = got[i];
    const TxnHeader& b = want[i];
    ASSERT_EQ(a.vertex, b.vertex) << "txn " << i;
    ASSERT_EQ(a.worker, b.worker) << "txn " << i;
    ASSERT_EQ(a.superstep, b.superstep) << "txn " << i;
    ASSERT_EQ(a.start, b.start) << "txn " << i;
    ASSERT_EQ(a.end, b.end) << "txn " << i;
    ASSERT_EQ(a.written_version, b.written_version) << "txn " << i;
    const std::span<const TxnRead> ra = History::Reads(g, a);
    const std::span<const TxnRead> rb = History::Reads(g, b);
    for (size_t k = 0; k < ra.size(); ++k) {
      ASSERT_EQ(ra[k].seen_version, rb[k].seen_version)
          << "txn " << i << " read " << k;
      ASSERT_EQ(ra[k].current_version, rb[k].current_version)
          << "txn " << i << " read " << k;
    }
  }
}

TEST(HistoryRecorderTest, RestoredSnapshotTakesBackEverythingAfterIt) {
  Graph g = Make(PowerLawChungLu(3000, 8.0, 2.1, 11)).Undirected();
  HistoryRecorder recorder(&g, 2);
  HistoryRecorder reference(&g, 2);
  RecordSweeps(recorder, g, 0, 2);
  RecordSweeps(reference, g, 0, 2);
  const HistoryRecorder::Snapshot snap = recorder.TakeSnapshot();

  // Enough sweeps after the snapshot to fill each worker's log past at
  // least one more chunk, so the restore drops whole chunks too.
  size_t sweep_bytes = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    sweep_bytes += TxnLog::EntryBytes(g.InDegree(v));
  }
  const int sweeps = static_cast<int>(4 * TxnLog::kChunkBytes / sweep_bytes);
  RecordSweeps(recorder, g, 2, sweeps);
  const HistoryRecorder::Snapshot later = recorder.TakeSnapshot();
  for (size_t w = 0; w < snap.logs.size(); ++w) {
    EXPECT_GT(later.logs[w].chunks, snap.logs[w].chunks) << "worker " << w;
  }
  recorder.RestoreSnapshot(snap);
  ExpectSameHistory(g, recorder.TakeRecords(), reference.TakeRecords());

  // Versions, delivered versions and the clock came back too: both
  // recorders go on to record the same transactions.
  RecordSweeps(recorder, g, 2, 1);
  RecordSweeps(reference, g, 2, 1);
  const History got = recorder.TakeRecords();
  ExpectSameHistory(g, got, reference.TakeRecords());
  EXPECT_TRUE(CheckHistory(g, got).ok());
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
      ++hits[provenance[i]];
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
// arrays, kept as the oracle (reading the flat history, and visiting a
// one-way edge's pair from its source): the flat checker must reach the
// same verdicts with the same counts and samples on any history.

void OracleAddViolation(HistoryCheck* check, const std::string& text) {
  if (check->violation_samples.size() < 8) {
    check->violation_samples.push_back(text);
  }
}

HistoryCheck OracleCheckHistory(const Graph& graph, const History& history) {
  HistoryCheck check;
  check.num_transactions = history.size();
  std::vector<const TxnHeader*> records;
  for (int64_t i = 0; i < history.size(); ++i) records.push_back(&history[i]);

  // --- Condition C1: every read fresh. -----------------------------------
  for (const TxnHeader* rec : records) {
    const auto in = graph.InNeighbors(rec->vertex);
    const auto reads = History::Reads(graph, *rec);
    for (size_t k = 0; k < reads.size(); ++k) {
      if (reads[k].seen_version != reads[k].current_version) {
        check.c1_fresh_reads = false;
        ++check.c1_violations;
        if (check.c1_violations <= 2) {
          std::ostringstream os;
          os << "C1: txn on v" << rec->vertex << " (superstep "
             << rec->superstep << ") read v" << in[k] << " at version "
             << reads[k].seen_version << " but primary was at "
             << reads[k].current_version;
          OracleAddViolation(&check, os.str());
        }
      }
    }
  }

  // --- Condition C2: no neighboring transactions overlap. ----------------
  // Intervals per vertex, in record order.
  std::vector<std::vector<const TxnHeader*>> by_vertex(graph.num_vertices());
  for (const TxnHeader* rec : records) {
    by_vertex[rec->vertex].push_back(rec);
  }
  auto overlaps = [&](VertexId a, VertexId b) -> int64_t {
    int64_t count = 0;
    const auto& ta = by_vertex[a];
    const auto& tb = by_vertex[b];
    size_t j = 0;
    for (const TxnHeader* ra : ta) {
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
      const auto back = graph.OutNeighbors(u);
      // Each adjacent pair once.
      if (u < v && std::find(back.begin(), back.end(), v) != back.end()) {
        continue;
      }
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
    if (records[i]->written_version == 0) continue;  // unpublished write
    writer_index[key(records[i]->vertex, records[i]->written_version)] = i;
  }
  std::vector<std::vector<uint32_t>> adj(n_txn);
  std::vector<uint32_t> indegree(n_txn, 0);
  auto add_edge = [&](size_t from, size_t to) {
    if (from == to) return;
    adj[from].push_back(static_cast<uint32_t>(to));
    ++indegree[to];
  };
  for (size_t i = 0; i < n_txn; ++i) {
    const TxnHeader& rec = *records[i];
    // WW chain (only for published writes).
    if (rec.written_version > 0) {
      auto next_w = writer_index.find(
          key(rec.vertex, uint64_t{rec.written_version} + 1));
      if (next_w != writer_index.end()) add_edge(i, next_w->second);
    }
    // WR / RW edges from this txn's reads.
    const auto in = graph.InNeighbors(rec.vertex);
    const auto reads = History::Reads(graph, rec);
    for (size_t k = 0; k < reads.size(); ++k) {
      const uint64_t seen = reads[k].seen_version;
      if (seen > 0) {
        auto w = writer_index.find(key(in[k], seen));
        if (w != writer_index.end()) add_edge(w->second, i);
      }
      auto w_next = writer_index.find(key(in[k], seen + 1));
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

/// A random history on a random small graph; every transaction reads all
/// of its vertex's in-neighbors. Half the histories are careful, the
/// shape of a correct run's history: serial intervals, each published
/// write the vertex's next version, reads of the latest write, and each
/// rule broken only now and then — clean and nearly clean histories for
/// the one-pass proof to decide. The rest break the rules at random:
/// versions per vertex mostly advance by one but may repeat (duplicated
/// writer versions), skip, or stay unpublished; reads see the latest
/// version, an older one, or one that was never written; intervals are
/// disjoint or overlap.
struct RandomHistory {
  Graph graph;
  History history;
  bool start_sorted = false;
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

  const bool careful = rng.Uniform(2) == 0;
  // True with probability 1/odds, 1/(20 * odds) in a careful history.
  const auto deviate = [&](uint64_t odds) {
    return rng.Uniform(careful ? 20 * odds : odds) == 0;
  };
  const bool serial = rng.Uniform(3) == 0;  // disjoint intervals only
  const int num_txns = static_cast<int>(rng.UniformInt(0, 24));
  std::vector<uint64_t> published(static_cast<size_t>(n), 0);
  struct Draft {
    TxnHeader header;
    std::vector<TxnRead> reads;
  };
  std::vector<Draft> drafts;
  uint64_t clock = 1;
  for (int t = 0; t < num_txns; ++t) {
    Draft d;
    TxnHeader& rec = d.header;
    rec.vertex = static_cast<NeighborId>(rng.UniformInt(0, n - 1));
    rec.worker = static_cast<WorkerId>(rng.Uniform(2));
    rec.superstep = t / 4;
    // Careful histories are serial but for the odd stray interval.
    if (careful ? !deviate(2) : serial) {
      rec.start = clock++;
      rec.end = clock++;
    } else {
      rec.start = 1 + rng.Uniform(3 * static_cast<uint64_t>(num_txns));
      rec.end = rec.start + 1 + rng.Uniform(6);
      clock = std::max(clock, rec.end + 1);
    }
    uint64_t& last = published[static_cast<size_t>(rec.vertex)];
    if (rng.Uniform(5) == 0) {
      rec.written_version = 0;  // unpublished
    } else if (deviate(8)) {
      rec.written_version = last == 0 ? 1 : last;  // duplicated version
      last = rec.written_version;
    } else if (deviate(8)) {
      rec.written_version = last + 2;  // skips a version
      last = rec.written_version;
    } else {
      rec.written_version = ++last;
    }
    for (VertexId u : graph.InNeighbors(rec.vertex)) {
      const uint64_t latest = published[static_cast<size_t>(u)];
      TxnRead read;
      if (careful && !deviate(2)) {
        read.seen_version = read.current_version = latest;
      } else {
        // Up to two past the latest write: versions never written.
        read.seen_version = rng.Uniform(latest + 3);
        read.current_version =
            rng.Uniform(4) == 0 ? latest : read.seen_version;
      }
      d.reads.push_back(read);
    }
    drafts.push_back(std::move(d));
  }
  if (rng.Uniform(4) != 0) {  // TakeRecords order most of the time
    std::stable_sort(drafts.begin(), drafts.end(),
                     [](const Draft& a, const Draft& b) {
                       return a.header.start < b.header.start;
                     });
  }
  RandomHistory h{std::move(graph), {}, true};
  for (size_t i = 0; i < drafts.size(); ++i) {
    h.history.Append(h.graph, drafts[i].header, drafts[i].reads);
    if (i > 0 && drafts[i].header.start < drafts[i - 1].header.start) {
      h.start_sorted = false;
    }
  }
  return h;
}

TEST(CheckHistoryTest, FlatCheckerMatchesMapBasedOracle) {
  constexpr uint64_t kHistories = 2000;
  int64_t stale = 0, overlapping = 0, cyclic = 0, clean = 0;
  int64_t clean_sorted = 0;
  for (uint64_t seed = 1; seed <= kHistories; ++seed) {
    const RandomHistory h = MakeRandomHistory(seed);
    const HistoryCheck want = OracleCheckHistory(h.graph, h.history);
    const HistoryCheck got = CheckHistory(h.graph, h.history);
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
    const bool is_clean = want.ok() && want.num_transactions > 0;
    clean += is_clean ? 1 : 0;
    clean_sorted += is_clean && h.start_sorted ? 1 : 0;
  }
  // The generator must reach every verdict often enough to matter, and
  // hand the one-pass proof (start order only) clean histories to decide.
  EXPECT_GE(stale, 500);
  EXPECT_GE(overlapping, 300);
  EXPECT_GE(cyclic, 300);
  EXPECT_GE(clean, 100);
  EXPECT_GE(clean_sorted, 100);
}

}  // namespace
}  // namespace serigraph
