#ifndef SERIGRAPH_VERIFY_HISTORY_H_
#define SERIGRAPH_VERIFY_HISTORY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace serigraph {

/// One recorded transaction: a single execution of vertex `vertex`
/// (paper Section 3.2: T_i = r_i[N_u] w_i[u]). Stamps come from a global
/// atomic logical clock, so [start, end] intervals are comparable across
/// workers. Each read records the version the executing vertex observed
/// for an in-neighbor (from delivered messages) and the neighbor's
/// committed version at transaction start — condition C1 requires them to
/// be equal.
struct TxnRecord {
  VertexId vertex = kInvalidVertex;
  WorkerId worker = kInvalidWorker;
  int superstep = -1;
  uint64_t start = 0;
  uint64_t end = 0;
  /// Version this transaction published to `vertex`'s replicas, or 0 if
  /// the execution sent no messages (an unpublished write is invisible to
  /// every other transaction, like Algorithm 1's superstep-0 init).
  uint64_t written_version = 0;

  struct Read {
    VertexId neighbor = kInvalidVertex;
    uint64_t seen_version = 0;    ///< from delivered messages (replica)
    uint64_t current_version = 0; ///< primary copy at txn start
  };
  std::vector<Read> reads;
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
///     the read set and returns the version outgoing messages must carry.
///   * OnTxnEnd(...)                — execution finished; commits.
///
/// All hooks are thread-safe. Memory is O(|E| + #transactions): one
/// delivered version and one out-edge -> in-edge entry per edge.
class HistoryRecorder {
 public:
  HistoryRecorder(const Graph* graph, int num_workers);

  HistoryRecorder(const HistoryRecorder&) = delete;
  HistoryRecorder& operator=(const HistoryRecorder&) = delete;

  /// Starts the transaction for one execution of `v`. Returns the version
  /// number that this execution's writes (outgoing messages) carry.
  uint64_t OnTxnBegin(WorkerId w, VertexId v, int superstep);

  /// Commits the transaction begun by the matching OnTxnBegin.
  /// `published` says whether the execution sent at least one message;
  /// only published writes advance the vertex's replicated version.
  void OnTxnEnd(WorkerId w, VertexId v, bool published);

  /// Marks that the destination's replica of the source of in-edge
  /// `in_edge` is now at `version` (a data message carrying that version
  /// was applied to the destination's message store).
  void OnDeliver(int64_t in_edge, uint64_t version);

  /// In-edge index of (src -> dst), found by binary search over
  /// InNeighbors(dst); `src` must be an in-neighbor of `dst` (checked).
  int64_t InEdgeIndex(VertexId src, VertexId dst) const;

  /// In-edge index of every out-edge of `src`, aligned with
  /// graph.OutNeighbors(src): entry i is InEdgeIndex(src, OutNeighbors
  /// (src)[i]), precomputed in O(|E|) at construction.
  std::span<const int64_t> ProvenanceOfOutEdges(VertexId src) const {
    return {out_to_in_.data() + out_offsets_[src],
            out_to_in_.data() + out_offsets_[src + 1]};
  }

  /// Committed version of `v` (number of completed executions).
  uint64_t VersionOf(VertexId v) const {
    return versions_[v].load(std::memory_order_acquire);
  }

  /// All transactions from all workers. Call only after the run finished.
  std::vector<TxnRecord> TakeRecords();

  /// Deep copy of the recorder state (records, versions, delivered
  /// versions, logical clock). Take only at a quiescent point — a global
  /// barrier, where no transaction is open; checked.
  struct Snapshot {
    uint64_t clock = 1;
    std::vector<uint64_t> versions;
    std::vector<uint64_t> delivered;
    std::vector<std::vector<TxnRecord>> records;
  };
  Snapshot TakeSnapshot() const;

  /// Rolls the recorder back to `snap` (engine recovery: transactions from
  /// the failed attempt vanish from the history, exactly as their effects
  /// vanish from the restored state). Any open transactions on the failed
  /// attempt are discarded. Call only while no engine thread is running.
  void RestoreSnapshot(const Snapshot& snap);

 private:
  const Graph* graph_;
  std::atomic<uint64_t> clock_{1};
  /// Committed version per vertex (0 = never executed).
  std::vector<std::atomic<uint64_t>> versions_;
  /// Highest delivered version per in-edge, indexed by in-edge index.
  std::vector<std::atomic<uint64_t>> delivered_;

  struct WorkerLog {
    sy::Mutex mu;
    std::vector<TxnRecord> records SY_GUARDED_BY(mu);
    /// Transactions currently open on this worker, keyed by vertex.
    std::vector<TxnRecord> open SY_GUARDED_BY(mu);
  };
  std::vector<std::unique_ptr<WorkerLog>> logs_;

  /// In-edge CSR offsets: v's in-edges are [in_offsets_[v],
  /// in_offsets_[v + 1]), in InNeighbors(v) order.
  std::vector<int64_t> in_offsets_;
  /// Out-edge CSR offsets, and the out-edge -> in-edge permutation they
  /// index (see ProvenanceOfOutEdges).
  std::vector<int64_t> out_offsets_;
  std::vector<int64_t> out_to_in_;
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
/// graph built from write->read and read->overwrite dependencies. Works
/// on flat per-vertex arrays (transaction intervals, writers sorted by
/// version) and a CSR serialization graph sized exactly before it is
/// filled, in time near-linear in transactions, reads and edges.
HistoryCheck CheckHistory(const Graph& graph, std::vector<TxnRecord> records);

}  // namespace serigraph

#endif  // SERIGRAPH_VERIFY_HISTORY_H_
