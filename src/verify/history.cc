#include "verify/history.h"

#include <algorithm>
#include <limits>
#include <span>
#include <sstream>

#include "common/logging.h"

namespace serigraph {

HistoryRecorder::HistoryRecorder(const Graph* graph, int num_workers)
    : graph_(graph) {
  SG_CHECK(graph != nullptr);
  SG_CHECK_GT(num_workers, 0);
  const VertexId n = graph->num_vertices();
  versions_ = std::vector<std::atomic<uint64_t>>(n);
  delivered_ = std::vector<std::atomic<uint64_t>>(graph->num_edges());
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
  out_to_in_.resize(static_cast<size_t>(graph->num_edges()));
  for (VertexId src = 0; src < n; ++src) {
    int64_t e = out_offsets_[src];
    for (VertexId dst : graph->OutNeighbors(src)) {
      SG_DCHECK(graph->InNeighbors(dst)[cursor[dst] - in_offsets_[dst]] ==
                src);
      out_to_in_[e++] = cursor[dst]++;
    }
  }
  logs_.reserve(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    logs_.push_back(std::make_unique<WorkerLog>());
  }
}

int64_t HistoryRecorder::InEdgeIndex(VertexId src, VertexId dst) const {
  auto in = graph_->InNeighbors(dst);
  auto it = std::lower_bound(in.begin(), in.end(), src);
  SG_CHECK(it != in.end() && *it == src);
  return in_offsets_[dst] + (it - in.begin());
}

uint64_t HistoryRecorder::OnTxnBegin(WorkerId w, VertexId v, int superstep) {
  TxnRecord rec;
  rec.vertex = v;
  rec.worker = w;
  rec.superstep = superstep;
  rec.start = clock_.fetch_add(1, std::memory_order_acq_rel);
  // Snapshot the read set: what v's replica view says about each
  // in-neighbor vs. the neighbor's primary copy right now. Under C2 no
  // neighbor is mid-execution, so this pair is well-defined. v's
  // in-edges are contiguous, in InNeighbors order.
  auto in = graph_->InNeighbors(v);
  const int64_t base = in_offsets_[v];
  rec.reads.resize(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    TxnRecord::Read& read = rec.reads[i];
    read.neighbor = in[i];
    read.seen_version = delivered_[base + static_cast<int64_t>(i)].load(
        std::memory_order_acquire);
    read.current_version = versions_[in[i]].load(std::memory_order_acquire);
  }
  rec.written_version = versions_[v].load(std::memory_order_acquire) + 1;
  WorkerLog& log = *logs_[w];
  uint64_t version = rec.written_version;
  {
    sy::MutexLock lock(&log.mu);
    log.open.push_back(std::move(rec));
  }
  return version;
}

void HistoryRecorder::OnTxnEnd(WorkerId w, VertexId v, bool published) {
  WorkerLog& log = *logs_[w];
  sy::MutexLock lock(&log.mu);
  auto it = std::find_if(log.open.rbegin(), log.open.rend(),
                         [v](const TxnRecord& r) { return r.vertex == v; });
  SG_CHECK(it != log.open.rend());
  TxnRecord rec = std::move(*it);
  log.open.erase(std::next(it).base());
  if (published) {
    versions_[v].store(rec.written_version, std::memory_order_release);
  } else {
    rec.written_version = 0;
  }
  rec.end = clock_.fetch_add(1, std::memory_order_acq_rel);
  log.records.push_back(std::move(rec));
}

void HistoryRecorder::OnDeliver(int64_t in_edge, uint64_t version) {
  std::atomic<uint64_t>& slot = delivered_[in_edge];
  // Versions from one sender arrive in order, but be robust anyway.
  // mo: racy first read; the CAS below synchronizes
  uint64_t prev = slot.load(std::memory_order_relaxed);
  while (version > prev && !slot.compare_exchange_weak(
                               prev, version, std::memory_order_acq_rel)) {
  }
}

HistoryRecorder::Snapshot HistoryRecorder::TakeSnapshot() const {
  Snapshot snap;
  snap.clock = clock_.load(std::memory_order_acquire);
  snap.versions.reserve(versions_.size());
  for (const auto& v : versions_) {
    snap.versions.push_back(v.load(std::memory_order_acquire));
  }
  snap.delivered.reserve(delivered_.size());
  for (const auto& d : delivered_) {
    snap.delivered.push_back(d.load(std::memory_order_acquire));
  }
  snap.records.reserve(logs_.size());
  for (const auto& log : logs_) {
    sy::MutexLock lock(&log->mu);
    SG_CHECK(log->open.empty());  // snapshots only at global barriers
    snap.records.push_back(log->records);
  }
  return snap;
}

void HistoryRecorder::RestoreSnapshot(const Snapshot& snap) {
  SG_CHECK_EQ(snap.versions.size(), versions_.size());
  SG_CHECK_EQ(snap.delivered.size(), delivered_.size());
  SG_CHECK_EQ(snap.records.size(), logs_.size());
  clock_.store(snap.clock, std::memory_order_release);
  for (size_t i = 0; i < versions_.size(); ++i) {
    versions_[i].store(snap.versions[i], std::memory_order_release);
  }
  for (size_t i = 0; i < delivered_.size(); ++i) {
    delivered_[i].store(snap.delivered[i], std::memory_order_release);
  }
  for (size_t w = 0; w < logs_.size(); ++w) {
    sy::MutexLock lock(&logs_[w]->mu);
    logs_[w]->records = snap.records[w];
    // Transactions left open by a crashed/aborted attempt are discarded:
    // they never committed, so they are not part of the history.
    logs_[w]->open.clear();
  }
}

std::vector<TxnRecord> HistoryRecorder::TakeRecords() {
  std::vector<TxnRecord> all;
  for (auto& log : logs_) {
    sy::MutexLock lock(&log->mu);
    SG_CHECK(log->open.empty());
    all.insert(all.end(), std::make_move_iterator(log->records.begin()),
               std::make_move_iterator(log->records.end()));
    log->records.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const TxnRecord& a, const TxnRecord& b) {
              return a.start < b.start;
            });
  return all;
}

namespace {

constexpr size_t kMaxSamples = 8;

void AddViolation(HistoryCheck* check, const std::string& text) {
  if (check->violation_samples.size() < kMaxSamples) {
    check->violation_samples.push_back(text);
  }
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

}  // namespace

HistoryCheck CheckHistory(const Graph& graph, std::vector<TxnRecord> records) {
  HistoryCheck check;
  check.num_transactions = static_cast<int64_t>(records.size());
  const size_t n_txn = records.size();
  const size_t n = static_cast<size_t>(graph.num_vertices());
  SG_CHECK_LT(n_txn, size_t{std::numeric_limits<uint32_t>::max()});

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
          AddViolation(&check, os.str());
        }
      }
    }
  }

  // --- Condition C2: no neighboring transactions overlap. ----------------
  // Intervals per vertex in one flat CSR array, in record order (records
  // are start-sorted when they come from TakeRecords).
  struct Interval {
    uint64_t start;
    uint64_t end;
  };
  std::vector<Interval> intervals(n_txn);
  const std::vector<uint32_t> interval_offsets = CountingSort(
      n_txn, n, [&](size_t i) { return records[i].vertex; },
      [&](size_t i, uint32_t slot) {
        intervals[slot] = {records[i].start, records[i].end};
      });
  auto intervals_of = [&](VertexId v) {
    return std::span<const Interval>(intervals.data() + interval_offsets[v],
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
          if (check.violation_samples.size() < kMaxSamples) {
            std::ostringstream os;
            os << "C2: txns on neighbors v" << a << " [" << ra.start << ","
               << ra.end << "] and v" << b << " [" << tb[k].start << ","
               << tb[k].end << "] overlap";
            AddViolation(&check, os.str());
          }
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
  // Published writers per vertex, flat and sorted by version; equal
  // versions keep record order and a lookup takes the last of them.
  struct Writer {
    uint64_t version;
    uint32_t txn;
  };
  std::vector<Writer> writers(n_txn);
  const std::vector<uint32_t> writer_offsets = CountingSort(
      n_txn, n,
      [&](size_t i) -> int64_t {
        return records[i].written_version == 0 ? -1  // unpublished
                                               : records[i].vertex;
      },
      [&](size_t i, uint32_t slot) {
        writers[slot] = {records[i].written_version, static_cast<uint32_t>(i)};
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
    if (v < 0 || static_cast<size_t>(v) >= n) return kNoWriter;
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
      const TxnRecord& rec = records[i];
      const auto self = static_cast<uint32_t>(i);
      // WW chain (only for published writes).
      if (rec.written_version > 0) {
        const uint32_t next = writer_of(rec.vertex, rec.written_version + 1);
        if (next != kNoWriter) emit(self, next);
      }
      // WR / RW edges from this txn's reads.
      for (const TxnRecord::Read& read : rec.reads) {
        if (read.seen_version > 0) {
          const uint32_t w = writer_of(read.neighbor, read.seen_version);
          if (w != kNoWriter) emit(w, self);
        }
        const uint32_t w_next =
            writer_of(read.neighbor, read.seen_version + 1);
        if (w_next != kNoWriter) emit(self, w_next);
      }
    }
  };
  std::vector<uint64_t> adj_offsets(n_txn + 1, 0);
  std::vector<uint32_t> indegree(n_txn, 0);
  // A history whose dependencies all run forward in record order is
  // acyclic: record order is then a topological order. A correct run's
  // history in start order is of that kind (a transaction starts after
  // the writes it read and before their overwrites), so the common case
  // builds no adjacency at all.
  bool forward = true;
  for_each_edge([&](uint32_t from, uint32_t to) {
    if (from == to) return;
    forward &= from < to;
    ++adj_offsets[from + 1];
    ++indegree[to];
  });
  size_t seen = n_txn;
  if (!forward) {
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
    seen = 0;
    while (seen < queue.size()) {
      const uint32_t node = queue[seen++];
      for (uint64_t e = adj_offsets[node]; e < adj_offsets[node + 1]; ++e) {
        if (--indegree[adj[e]] == 0) queue.push_back(adj[e]);
      }
    }
  }
  if (seen != n_txn) {
    check.serializable = false;
    AddViolation(&check, "1SR: serialization graph contains a cycle (" +
                             std::to_string(n_txn - seen) +
                             " transactions involved)");
  }

  return check;
}

}  // namespace serigraph
