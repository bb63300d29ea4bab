#ifndef SERIGRAPH_VERIFY_HISTORY_H_
#define SERIGRAPH_VERIFY_HISTORY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/scratch.h"
#include "common/thread_annotations.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace serigraph {

/// One recorded transaction: a single execution of vertex `vertex`
/// (paper Section 3.2: T_i = r_i[N_u] w_i[u]). Stamps come from a global
/// atomic logical clock, so [start, end] intervals are comparable across
/// workers. In a log the header is followed by the transaction's reads,
/// one TxnRead per in-neighbor in InNeighbors(vertex) order: the graph
/// names each read's neighbor and their number, so neither is stored.
struct TxnHeader {
  uint64_t start = 0;
  uint64_t end = 0;  ///< 0 while the transaction is open
  NeighborId vertex = -1;
  int32_t superstep = -1;
  /// Version this transaction published to `vertex`'s replicas, or 0 if
  /// the execution sent no messages (an unpublished write is invisible to
  /// every other transaction, like Algorithm 1's superstep-0 init).
  uint32_t written_version = 0;
  WorkerId worker = kInvalidWorker;
};

/// One read: the version the executing vertex observed for an in-neighbor
/// (from delivered messages) and the neighbor's committed version at
/// transaction start. Condition C1 requires them to be equal.
struct TxnRead {
  uint32_t seen_version = 0;     ///< from delivered messages (replica)
  uint32_t current_version = 0;  ///< primary copy at txn start
};

/// Append-only log of transaction entries (a TxnHeader and its reads),
/// in chunks mapped outside malloc (common/scratch.h): a finished job's
/// log goes back to the kernel whole instead of staying in the heap.
/// Entries never move once allocated.
class TxnLog {
 public:
  /// Chunk sizes: a log's first chunk is small, so a short history costs
  /// little, and each next one doubles up to two huge pages (chunks that
  /// large are advised for them). An entry larger than its chunk would
  /// be gets a chunk of its own size.
  static constexpr size_t kFirstChunkBytes = size_t{64} << 10;
  static constexpr size_t kChunkBytes = 2 * kHugePageBytes;

  /// Allocates an entry with room for `num_reads` reads after its
  /// header; the header is default-initialized (open, unpublished).
  TxnHeader* AllocateEntry(int64_t num_reads);

  /// A log length to truncate back to.
  struct Mark {
    size_t chunks = 0;
    size_t used = 0;  ///< bytes used in the last of those chunks
  };
  Mark mark() const;
  /// Drops every entry allocated after `mark` was taken.
  void TruncateTo(Mark mark);

  /// Calls `f(header)` for every entry in allocation order; `graph`
  /// gives each entry's number of reads.
  template <typename F>
  void ForEachEntry(const Graph& graph, F&& f) const {
    for (const Chunk& chunk : chunks_) {
      const std::byte* p = chunk.bytes.data();
      const std::byte* end = p + chunk.used;
      while (p < end) {
        const auto* header = reinterpret_cast<const TxnHeader*>(p);
        f(*header);
        p += EntryBytes(graph.InDegree(header->vertex));
      }
    }
  }

  static size_t EntryBytes(int64_t num_reads) {
    return sizeof(TxnHeader) +
           static_cast<size_t>(num_reads) * sizeof(TxnRead);
  }

 private:
  struct Chunk {
    ScratchArray<std::byte> bytes;
    size_t capacity = 0;
    size_t used = 0;
  };
  std::vector<Chunk> chunks_;
};

/// A recorded history: transactions in record order — start order when
/// it comes from HistoryRecorder::TakeRecords — over logs it owns.
class History {
 public:
  int64_t size() const { return static_cast<int64_t>(txns_.size()); }
  const TxnHeader& operator[](int64_t i) const { return *txns_[i]; }

  /// `txn`'s reads, aligned with graph.InNeighbors(txn.vertex).
  static std::span<const TxnRead> Reads(const Graph& graph,
                                        const TxnHeader& txn) {
    return {reinterpret_cast<const TxnRead*>(&txn + 1),
            static_cast<size_t>(graph.InDegree(txn.vertex))};
  }

  /// Appends a transaction with one read per InNeighbors(header.vertex)
  /// (checked), for histories built by hand.
  void Append(const Graph& graph, const TxnHeader& header,
              std::span<const TxnRead> reads);

 private:
  friend class HistoryRecorder;
  std::vector<TxnLog> logs_;
  std::vector<const TxnHeader*> txns_;
};

/// Records the transaction history of an engine run for offline
/// serializability checking.
///
/// A delivery is identified by its *in-edge index*: the position of the
/// directed edge (src -> dst) in the graph's in-edge CSR, i.e. dst's
/// in-edge offset plus src's rank in InNeighbors(dst). The sender looks
/// the index up once per message (ProvenanceOfOutEdges by out-edge
/// position, or InEdgeIndex for a point send) and the message carries it
/// with its write version through staging, partition bins and the wire,
/// so recording costs O(1) per delivered message and O(in-degree) per
/// transaction — no search on either side. Engine hooks:
///   * OnDeliver(in_edge, version) — a data message written at `version`
///     over in-edge `in_edge` became visible to the destination's
///     replica (message store).
///   * OnTxnBegin(...)              — vertex execution starts; snapshots
///     the read set into the worker's log and returns the open
///     transaction, with the version outgoing messages must carry.
///   * OnTxnEnd(...)                — execution finished; commits.
///
/// All hooks are thread-safe. Versions, delivered versions and in-edge
/// indices are 4-byte entries in mapped arrays (O(|V| + |E|)); each
/// transaction costs a 32-byte header plus 8 bytes per read in its
/// worker's log.
class HistoryRecorder {
 public:
  HistoryRecorder(const Graph* graph, int num_workers);

  HistoryRecorder(const HistoryRecorder&) = delete;
  HistoryRecorder& operator=(const HistoryRecorder&) = delete;

  /// A transaction between OnTxnBegin and OnTxnEnd.
  struct Txn {
    TxnHeader* entry = nullptr;
    /// Version this execution's writes (outgoing messages) carry.
    uint32_t version = 0;
  };

  /// Starts the transaction for one execution of `v` on worker `w`.
  Txn OnTxnBegin(WorkerId w, VertexId v, int superstep);

  /// Commits `txn`. `published` says whether the execution sent at least
  /// one message; only published writes advance the vertex's replicated
  /// version.
  void OnTxnEnd(const Txn& txn, bool published);

  /// Marks that the destination's replica of the source of in-edge
  /// `in_edge` is now at `version` (a data message carrying that version
  /// was applied to the destination's message store).
  void OnDeliver(uint32_t in_edge, uint32_t version);

  /// In-edge index of (src -> dst), found by binary search over
  /// InNeighbors(dst); `src` must be an in-neighbor of `dst` (checked).
  uint32_t InEdgeIndex(VertexId src, VertexId dst) const;

  /// In-edge index of every out-edge of `src`, aligned with
  /// graph.OutNeighbors(src): entry i is InEdgeIndex(src, OutNeighbors
  /// (src)[i]), precomputed in O(|E|) at construction.
  std::span<const uint32_t> ProvenanceOfOutEdges(VertexId src) const {
    return {out_to_in_.data() + out_offsets_[src],
            out_to_in_.data() + out_offsets_[src + 1]};
  }

  /// Committed version of `v` (number of published executions).
  uint32_t VersionOf(VertexId v) const;

  /// All transactions from all workers, in start order; hands the logs
  /// over without copying them. Call only after the run finished.
  History TakeRecords();

  /// Recorder state at a quiescent point: versions, delivered versions,
  /// the logical clock, and each worker log's length (not its records:
  /// a restore truncates the logs back). Take only at a global barrier,
  /// where no transaction is open; checked.
  struct Snapshot {
    uint64_t clock = 1;
    std::vector<uint32_t> versions;
    std::vector<uint32_t> delivered;
    std::vector<TxnLog::Mark> logs;
  };
  Snapshot TakeSnapshot() const;

  /// Rolls the recorder back to `snap` (engine recovery: transactions from
  /// the failed attempt vanish from the history, exactly as their effects
  /// vanish from the restored state). Any open transactions on the failed
  /// attempt are discarded. Snapshots taken after `snap` become invalid:
  /// their records are gone. Call only while no engine thread is running.
  void RestoreSnapshot(const Snapshot& snap);

 private:
  const Graph* graph_;
  std::atomic<uint64_t> clock_{1};
  /// Committed version per vertex (0 = never published); accessed
  /// through std::atomic_ref.
  ScratchArray<uint32_t> versions_;
  /// Highest delivered version per in-edge, indexed by in-edge index;
  /// accessed through std::atomic_ref.
  ScratchArray<uint32_t> delivered_;

  struct WorkerLog {
    sy::Mutex mu;
    TxnLog log SY_GUARDED_BY(mu);
    /// Transactions begun and not yet ended on this worker.
    std::atomic<int64_t> open{0};
  };
  std::vector<std::unique_ptr<WorkerLog>> logs_;

  /// In-edge CSR offsets: v's in-edges are [in_offsets_[v],
  /// in_offsets_[v + 1]), in InNeighbors(v) order.
  std::vector<int64_t> in_offsets_;
  /// Out-edge CSR offsets, and the out-edge -> in-edge permutation they
  /// index (see ProvenanceOfOutEdges).
  std::vector<int64_t> out_offsets_;
  ScratchArray<uint32_t> out_to_in_;
};

/// Result of checking a history against the paper's correctness criteria.
struct HistoryCheck {
  int64_t num_transactions = 0;
  /// Condition C1 (Section 3.3): every read saw an up-to-date replica.
  bool c1_fresh_reads = true;
  int64_t c1_violations = 0;
  /// Condition C2: no transaction overlapped a neighbor's transaction.
  bool c2_no_neighbor_overlap = true;
  int64_t c2_violations = 0;
  /// One-copy serializability via serialization-graph acyclicity.
  bool serializable = true;
  /// Human-readable description of the first few violations.
  std::vector<std::string> violation_samples;

  bool ok() const {
    return c1_fresh_reads && c2_no_neighbor_overlap && serializable;
  }
};

/// Checks a recorded history: C1 freshness, C2 interval disjointness for
/// every graph edge, and acyclicity of the (multiversion) serialization
/// graph built from write->read and read->overwrite dependencies.
///
/// One pass in record order first tries to prove all three at once: with
/// per-vertex "published writes so far" and "latest end stamp", a
/// start-ordered history in which every read is fresh and current, each
/// vertex publishes versions 1, 2, 3, ... in order, and no transaction
/// starts before a neighbor's earlier transaction ended has every
/// dependency pointing forward, so it is serializable (a correct run's
/// history is of that kind). Any other history runs the exact passes,
/// which count violations and collect samples: per-vertex intervals and
/// version-sorted writers in flat arrays, and a CSR serialization graph
/// checked by Kahn's algorithm.
HistoryCheck CheckHistory(const Graph& graph, const History& history);

}  // namespace serigraph

#endif  // SERIGRAPH_VERIFY_HISTORY_H_
