#include "verify/history.h"

#include <algorithm>
#include <limits>
#include <new>
#include <span>
#include <sstream>

#include "common/logging.h"

namespace serigraph {

namespace {

uint32_t LoadVersion(uint32_t& slot) {
  return std::atomic_ref<uint32_t>(slot).load(std::memory_order_acquire);
}

}  // namespace

// --- TxnLog / History ------------------------------------------------------

TxnHeader* TxnLog::AllocateEntry(int64_t num_reads) {
  const size_t bytes = EntryBytes(num_reads);
  if (chunks_.empty() ||
      chunks_.back().capacity - chunks_.back().used < bytes) {
    const size_t grown = chunks_.empty() ? kFirstChunkBytes
                                         : 2 * chunks_.back().capacity;
    const size_t capacity = std::max(std::min(grown, kChunkBytes), bytes);
    chunks_.push_back(
        {ScratchArray<std::byte>(static_cast<int64_t>(capacity)), capacity,
         0});
    chunks_.back().bytes.AdviseHugePages();
  }
  Chunk& chunk = chunks_.back();
  std::byte* p = chunk.bytes.data() + chunk.used;
  chunk.used += bytes;
  return ::new (p) TxnHeader{};
}

TxnLog::Mark TxnLog::mark() const {
  if (chunks_.empty()) return {};
  return {chunks_.size(), chunks_.back().used};
}

void TxnLog::TruncateTo(Mark mark) {
  // A mark past the end names records an earlier truncation discarded.
  SG_CHECK_LE(mark.chunks, chunks_.size());
  if (mark.chunks == 0) {
    chunks_.clear();
    return;
  }
  SG_CHECK(mark.chunks < chunks_.size() ||
           mark.used <= chunks_.back().used);
  chunks_.resize(mark.chunks);
  chunks_.back().used = mark.used;
}

void History::Append(const Graph& graph, const TxnHeader& header,
                     std::span<const TxnRead> reads) {
  SG_CHECK_EQ(static_cast<int64_t>(reads.size()),
              graph.InDegree(header.vertex));
  if (logs_.empty()) logs_.emplace_back();
  TxnHeader* entry =
      logs_.back().AllocateEntry(static_cast<int64_t>(reads.size()));
  *entry = header;
  std::ranges::copy(reads, reinterpret_cast<TxnRead*>(entry + 1));
  txns_.push_back(entry);
}

// --- HistoryRecorder -------------------------------------------------------

HistoryRecorder::HistoryRecorder(const Graph* graph, int num_workers)
    : graph_(graph) {
  SG_CHECK(graph != nullptr);
  SG_CHECK_GT(num_workers, 0);
  // In-edge indices and the delivered versions they address are 4 bytes.
  SG_CHECK_LE(graph->num_edges(),
              int64_t{std::numeric_limits<uint32_t>::max()});
  const VertexId n = graph->num_vertices();
  versions_ = ScratchArray<uint32_t>(n);
  delivered_ = ScratchArray<uint32_t>(graph->num_edges());
  delivered_.AdviseHugePages();
  in_offsets_.assign(n + 1, 0);
  out_offsets_.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    in_offsets_[v + 1] = in_offsets_[v] + graph->InDegree(v);
    out_offsets_[v + 1] = out_offsets_[v] + graph->OutDegree(v);
  }
  // Out-edge -> in-edge permutation in one sweep: visiting sources in
  // increasing order meets each destination's in-edges in InNeighbors
  // order (sorted by source), so a per-destination cursor hands out
  // consecutive in-edge indices.
  std::vector<int64_t> cursor(in_offsets_.begin(), in_offsets_.end() - 1);
  out_to_in_ = ScratchArray<uint32_t>(graph->num_edges());
  out_to_in_.AdviseHugePages();
  for (VertexId src = 0; src < n; ++src) {
    int64_t e = out_offsets_[src];
    for (VertexId dst : graph->OutNeighbors(src)) {
      SG_DCHECK(graph->InNeighbors(dst)[cursor[dst] - in_offsets_[dst]] ==
                src);
      out_to_in_[e++] = static_cast<uint32_t>(cursor[dst]++);
    }
  }
  logs_.reserve(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    logs_.push_back(std::make_unique<WorkerLog>());
  }
}

uint32_t HistoryRecorder::InEdgeIndex(VertexId src, VertexId dst) const {
  auto in = graph_->InNeighbors(dst);
  auto it = std::lower_bound(in.begin(), in.end(), src);
  SG_CHECK(it != in.end() && *it == src);
  return static_cast<uint32_t>(in_offsets_[dst] + (it - in.begin()));
}

uint32_t HistoryRecorder::VersionOf(VertexId v) const {
  return LoadVersion(versions_[v]);
}

HistoryRecorder::Txn HistoryRecorder::OnTxnBegin(WorkerId w, VertexId v,
                                                 int superstep) {
  const std::span<const NeighborId> in = graph_->InNeighbors(v);
  WorkerLog& log = *logs_[w];
  TxnHeader* entry = nullptr;
  {
    sy::MutexLock lock(&log.mu);
    entry = log.log.AllocateEntry(static_cast<int64_t>(in.size()));
    // Stamped under the log's lock, so every worker log is in start
    // order and TakeRecords merges instead of sorting.
    entry->start = clock_.fetch_add(1, std::memory_order_acq_rel);
  }
  // mo: read only at quiescent points, after the barrier that ends the run
  log.open.fetch_add(1, std::memory_order_relaxed);
  entry->vertex = static_cast<NeighborId>(v);
  entry->superstep = superstep;
  entry->worker = w;
  // Snapshot the read set: what v's replica view says about each
  // in-neighbor vs. the neighbor's primary copy right now. Under C2 no
  // neighbor is mid-execution, so this pair is well-defined. v's
  // in-edges are contiguous, in InNeighbors order.
  auto* reads = reinterpret_cast<TxnRead*>(entry + 1);
  uint32_t* delivered = delivered_.data() + in_offsets_[v];
  for (size_t i = 0; i < in.size(); ++i) {
    reads[i] = {LoadVersion(delivered[i]), LoadVersion(versions_[in[i]])};
  }
  const uint32_t current = LoadVersion(versions_[v]);
  SG_CHECK_LT(current, std::numeric_limits<uint32_t>::max());
  entry->written_version = current + 1;
  return {entry, entry->written_version};
}

void HistoryRecorder::OnTxnEnd(const Txn& txn, bool published) {
  TxnHeader& entry = *txn.entry;
  if (published) {
    std::atomic_ref<uint32_t>(versions_[entry.vertex])
        .store(entry.written_version, std::memory_order_release);
  } else {
    entry.written_version = 0;
  }
  entry.end = clock_.fetch_add(1, std::memory_order_acq_rel);
  // mo: read only at quiescent points, after the barrier that ends the run
  logs_[entry.worker]->open.fetch_sub(1, std::memory_order_relaxed);
}

void HistoryRecorder::OnDeliver(uint32_t in_edge, uint32_t version) {
  // One thread at a time delivers over an edge: the thread executing
  // the source (a local send), the destination worker's comm thread (a
  // remote one), or the thread swapping the destination's partition
  // (BSP). So a load and a store keep the highest version, without a
  // locked read-modify-write; versions from one sender arrive in order,
  // but an older one never lowers the slot.
  std::atomic_ref<uint32_t> slot(delivered_[in_edge]);
  // mo: only this thread writes the slot now; earlier writers are
  // ordered before it by the batch, swap or execution that handed over
  if (version > slot.load(std::memory_order_relaxed)) {
    slot.store(version, std::memory_order_release);
  }
}

HistoryRecorder::Snapshot HistoryRecorder::TakeSnapshot() const {
  Snapshot snap;
  snap.clock = clock_.load(std::memory_order_acquire);
  snap.versions.assign(versions_.data(), versions_.data() + versions_.size());
  snap.delivered.assign(delivered_.data(),
                        delivered_.data() + delivered_.size());
  snap.logs.reserve(logs_.size());
  for (const auto& log : logs_) {
    sy::MutexLock lock(&log->mu);
    // mo: the barrier this snapshot runs behind ordered every OnTxnEnd
    SG_CHECK_EQ(log->open.load(std::memory_order_relaxed), 0);
    snap.logs.push_back(log->log.mark());
  }
  return snap;
}

void HistoryRecorder::RestoreSnapshot(const Snapshot& snap) {
  SG_CHECK_EQ(static_cast<int64_t>(snap.versions.size()), versions_.size());
  SG_CHECK_EQ(static_cast<int64_t>(snap.delivered.size()),
              delivered_.size());
  SG_CHECK_EQ(snap.logs.size(), logs_.size());
  clock_.store(snap.clock, std::memory_order_release);
  std::ranges::copy(snap.versions, versions_.data());
  std::ranges::copy(snap.delivered, delivered_.data());
  for (size_t w = 0; w < logs_.size(); ++w) {
    sy::MutexLock lock(&logs_[w]->mu);
    // Transactions left open by a crashed/aborted attempt are discarded
    // with the rest of its records: they never committed, so they are
    // not part of the history.
    logs_[w]->log.TruncateTo(snap.logs[w]);
    // mo: no engine thread runs during a restore
    logs_[w]->open.store(0, std::memory_order_relaxed);
  }
}

History HistoryRecorder::TakeRecords() {
  History history;
  const auto by_start = [](const TxnHeader* a, const TxnHeader* b) {
    return a->start < b->start;
  };
  for (auto& log : logs_) {
    sy::MutexLock lock(&log->mu);
    // mo: the run has finished; its threads were joined
    SG_CHECK_EQ(log->open.load(std::memory_order_relaxed), 0);
    const auto mid = static_cast<std::ptrdiff_t>(history.txns_.size());
    log->log.ForEachEntry(*graph_, [&](const TxnHeader& txn) {
      history.txns_.push_back(&txn);
    });
    SG_DCHECK(std::is_sorted(history.txns_.begin() + mid,
                             history.txns_.end(), by_start));
    std::inplace_merge(history.txns_.begin(), history.txns_.begin() + mid,
                       history.txns_.end(), by_start);
    history.logs_.push_back(std::move(log->log));
    log->log = TxnLog();
  }
  return history;
}

// --- CheckHistory ------------------------------------------------------------

namespace {

constexpr size_t kMaxSamples = 8;

void AddViolation(HistoryCheck* check, const std::string& text) {
  if (check->violation_samples.size() < kMaxSamples) {
    check->violation_samples.push_back(text);
  }
}

/// The one-pass proof (see CheckHistory): true only if the history is in
/// start order and satisfies C1, C2 and 1SR. Walking in record order, a
/// transaction on v passes if, for every neighbor u,
///   * u's latest end so far is no later than its start (no earlier
///     transaction on u overlaps it — later ones check against v's end),
///   * for in-neighbors, the read is fresh (seen == current) and saw
///     exactly u's published writes so far: the writer of that version
///     came earlier (WR) and the writer of the next comes later (RW);
/// and its own write, if published, is the next version of v (WW). Then
/// every dependency points forward in record order, a topological order,
/// so the serialization graph is acyclic. A false return proves nothing.
bool ProvesClean(const Graph& graph, const History& history) {
  struct VertexState {
    uint64_t last_end;
    uint32_t published;
  };
  ScratchArray<VertexState> state(graph.num_vertices());  // zeroed
  const bool symmetric = graph.symmetric();
  uint64_t prev_start = 0;
  for (int64_t i = 0; i < history.size(); ++i) {
    const TxnHeader& txn = history[i];
    if (txn.start < prev_start) return false;
    prev_start = txn.start;
    const std::span<const NeighborId> in = graph.InNeighbors(txn.vertex);
    const TxnRead* reads = History::Reads(graph, txn).data();
    bool ok = true;
    for (size_t k = 0; k < in.size(); ++k) {
      const VertexState& u = state[in[k]];
      ok &= (reads[k].seen_version == reads[k].current_version) &
            (reads[k].seen_version == u.published) &
            (u.last_end <= txn.start);
    }
    if (!symmetric) {
      // C2 also covers out-neighbors; a symmetric graph's are the in-list.
      for (const NeighborId u : graph.OutNeighbors(txn.vertex)) {
        ok &= state[u].last_end <= txn.start;
      }
    }
    VertexState& self = state[txn.vertex];
    if (txn.written_version != 0) {
      ok &= txn.written_version == self.published + 1;
      self.published = txn.written_version;
    }
    if (!ok) return false;
    self.last_end = std::max(self.last_end, txn.end);
  }
  return true;
}

/// Stable counting sort into a CSR layout: item i (skipped when
/// bucket_of(i) < 0) goes to slot place(i, slot) of its bucket, items of
/// one bucket keeping their input order. Returns the n_buckets + 1
/// bucket offsets.
template <typename BucketOf, typename Place>
std::vector<uint32_t> CountingSort(size_t n_items, size_t n_buckets,
                                   BucketOf bucket_of, Place place) {
  std::vector<uint32_t> offsets(n_buckets + 1, 0);
  for (size_t i = 0; i < n_items; ++i) {
    const int64_t b = bucket_of(i);
    if (b >= 0) ++offsets[static_cast<size_t>(b) + 1];
  }
  for (size_t b = 0; b < n_buckets; ++b) offsets[b + 1] += offsets[b];
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t i = 0; i < n_items; ++i) {
    const int64_t b = bucket_of(i);
    if (b >= 0) place(i, cursor[static_cast<size_t>(b)]++);
  }
  return offsets;
}

/// The exact passes: every violation counted, the first few sampled.
void CheckExactly(const Graph& graph, const History& history,
                  HistoryCheck* check) {
  const auto n_txn = static_cast<size_t>(history.size());
  const auto n = static_cast<size_t>(graph.num_vertices());
  const auto txn = [&](size_t i) -> const TxnHeader& {
    return history[static_cast<int64_t>(i)];
  };

  // --- Condition C1: every read fresh. -----------------------------------
  for (size_t i = 0; i < n_txn; ++i) {
    const TxnHeader& rec = txn(i);
    const std::span<const NeighborId> in = graph.InNeighbors(rec.vertex);
    const std::span<const TxnRead> reads = History::Reads(graph, rec);
    for (size_t k = 0; k < reads.size(); ++k) {
      if (reads[k].seen_version == reads[k].current_version) continue;
      check->c1_fresh_reads = false;
      ++check->c1_violations;
      if (check->c1_violations <= 2) {
        std::ostringstream os;
        os << "C1: txn on v" << rec.vertex << " (superstep " << rec.superstep
           << ") read v" << in[k] << " at version " << reads[k].seen_version
           << " but primary was at " << reads[k].current_version;
        AddViolation(check, os.str());
      }
    }
  }

  // --- Condition C2: no neighboring transactions overlap. ----------------
  // Intervals per vertex in one flat CSR array, in record order.
  struct Interval {
    uint64_t start;
    uint64_t end;
  };
  std::vector<Interval> intervals(n_txn);
  const std::vector<uint32_t> interval_offsets = CountingSort(
      n_txn, n, [&](size_t i) { return txn(i).vertex; },
      [&](size_t i, uint32_t slot) {
        intervals[slot] = {txn(i).start, txn(i).end};
      });
  auto intervals_of = [&](VertexId v) {
    return std::span<const Interval>(
        intervals.data() + interval_offsets[v],
        intervals.data() + interval_offsets[v + 1]);
  };
  auto overlaps = [&](VertexId a, VertexId b) -> int64_t {
    int64_t count = 0;
    const std::span<const Interval> ta = intervals_of(a);
    const std::span<const Interval> tb = intervals_of(b);
    size_t j = 0;
    for (const Interval& ra : ta) {
      while (j < tb.size() && tb[j].end < ra.start) ++j;
      for (size_t k = j; k < tb.size() && tb[k].start < ra.end; ++k) {
        if (ra.start < tb[k].end && tb[k].start < ra.end) {
          ++count;
          if (check->violation_samples.size() < kMaxSamples) {
            std::ostringstream os;
            os << "C2: txns on neighbors v" << a << " [" << ra.start << ","
               << ra.end << "] and v" << b << " [" << tb[k].start << ","
               << tb[k].end << "] overlap";
            AddViolation(check, os.str());
          }
        }
      }
    }
    return count;
  };
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (VertexId u : graph.OutNeighbors(v)) {
      // Each adjacent pair once: from its lower end when both directions
      // are edges, else from the source of its one edge.
      if (u < v && (graph.symmetric() ||
                    std::ranges::binary_search(graph.OutNeighbors(u), v))) {
        continue;
      }
      const int64_t c = overlaps(v, u);
      if (c > 0) {
        check->c2_no_neighbor_overlap = false;
        check->c2_violations += c;
      }
    }
  }

  // --- 1SR: serialization-graph acyclicity. ------------------------------
  // Writers are totally ordered per vertex by version. Dependencies:
  //   WR: writer of (u, k) -> reader that saw (u, k)
  //   RW: reader that saw (u, k) -> writer of (u, k+1)
  //   WW: writer of (u, k) -> writer of (u, k+1)
  // Published writers per vertex, flat and sorted by version; equal
  // versions keep record order and a lookup takes the last of them.
  struct Writer {
    uint32_t version;
    uint32_t txn;
  };
  std::vector<Writer> writers(n_txn);
  const std::vector<uint32_t> writer_offsets = CountingSort(
      n_txn, n,
      [&](size_t i) -> int64_t {
        return txn(i).written_version == 0 ? -1  // unpublished
                                           : txn(i).vertex;
      },
      [&](size_t i, uint32_t slot) {
        writers[slot] = {txn(i).written_version, static_cast<uint32_t>(i)};
      });
  writers.resize(writer_offsets[n]);
  const auto by_version = [](const Writer& a, const Writer& b) {
    return a.version < b.version;
  };
  for (size_t v = 0; v < n; ++v) {
    auto first = writers.begin() + writer_offsets[v];
    auto last = writers.begin() + writer_offsets[v + 1];
    if (!std::is_sorted(first, last, by_version)) {
      std::stable_sort(first, last, by_version);
    }
  }
  constexpr uint32_t kNoWriter = std::numeric_limits<uint32_t>::max();
  auto writer_of = [&](VertexId v, uint64_t version) -> uint32_t {
    const Writer* first = writers.data() + writer_offsets[v];
    const Writer* last = writers.data() + writer_offsets[v + 1];
    const Writer* it = std::upper_bound(
        first, last, version,
        [](uint64_t ver, const Writer& w) { return ver < w.version; });
    if (it == first || (it - 1)->version != version) return kNoWriter;
    return (it - 1)->txn;
  };
  // Every dependency edge, handed to `emit(from, to)`. Run once to count
  // each transaction's out-degree and once to fill, so the adjacency is
  // sized exactly without an intermediate edge list.
  auto for_each_edge = [&](auto&& emit) {
    for (size_t i = 0; i < n_txn; ++i) {
      const TxnHeader& rec = txn(i);
      const auto self = static_cast<uint32_t>(i);
      // WW chain (only for published writes).
      if (rec.written_version > 0) {
        const uint32_t next =
            writer_of(rec.vertex, uint64_t{rec.written_version} + 1);
        if (next != kNoWriter) emit(self, next);
      }
      // WR / RW edges from this txn's reads.
      const std::span<const NeighborId> in = graph.InNeighbors(rec.vertex);
      const std::span<const TxnRead> reads = History::Reads(graph, rec);
      for (size_t k = 0; k < reads.size(); ++k) {
        const uint64_t seen = reads[k].seen_version;
        if (seen > 0) {
          const uint32_t w = writer_of(in[k], seen);
          if (w != kNoWriter) emit(w, self);
        }
        const uint32_t w_next = writer_of(in[k], seen + 1);
        if (w_next != kNoWriter) emit(self, w_next);
      }
    }
  };
  std::vector<uint64_t> adj_offsets(n_txn + 1, 0);
  std::vector<uint32_t> indegree(n_txn, 0);
  for_each_edge([&](uint32_t from, uint32_t to) {
    if (from == to) return;
    ++adj_offsets[from + 1];
    ++indegree[to];
  });
  for (size_t i = 0; i < n_txn; ++i) adj_offsets[i + 1] += adj_offsets[i];
  std::vector<uint32_t> adj(adj_offsets[n_txn]);
  {
    std::vector<uint64_t> fill(adj_offsets.begin(), adj_offsets.end() - 1);
    for_each_edge([&](uint32_t from, uint32_t to) {
      if (from != to) adj[fill[from]++] = to;
    });
  }
  // Kahn's algorithm; a leftover node means a cycle.
  std::vector<uint32_t> queue;
  queue.reserve(n_txn);
  for (size_t i = 0; i < n_txn; ++i) {
    if (indegree[i] == 0) queue.push_back(static_cast<uint32_t>(i));
  }
  size_t seen = 0;
  while (seen < queue.size()) {
    const uint32_t node = queue[seen++];
    for (uint64_t e = adj_offsets[node]; e < adj_offsets[node + 1]; ++e) {
      if (--indegree[adj[e]] == 0) queue.push_back(adj[e]);
    }
  }
  if (seen != n_txn) {
    check->serializable = false;
    AddViolation(check, "1SR: serialization graph contains a cycle (" +
                            std::to_string(n_txn - seen) +
                            " transactions involved)");
  }
}

}  // namespace

HistoryCheck CheckHistory(const Graph& graph, const History& history) {
  HistoryCheck check;
  check.num_transactions = history.size();
  SG_CHECK_LT(history.size(), int64_t{std::numeric_limits<uint32_t>::max()});
  if (!ProvesClean(graph, history)) CheckExactly(graph, history, &check);
  return check;
}

}  // namespace serigraph
