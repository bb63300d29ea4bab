#ifndef SERIGRAPH_SYNC_DISTRIBUTED_LOCKING_H_
#define SERIGRAPH_SYNC_DISTRIBUTED_LOCKING_H_

#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "sync/chandy_misra.h"
#include "sync/technique.h"

namespace serigraph {

/// Partition-based distributed locking (Section 5.4) — the paper's main
/// contribution. Partitions are the philosophers; two partitions share a
/// fork iff an edge connects their vertices (the "virtual partition
/// edges" of Figure 5). A partition acquires all its forks, executes all
/// of its vertices sequentially, then releases. p-internal vertices need
/// no coordination at all; the engine skips acquisition entirely for
/// halted partitions with no pending messages (Section 5.4 optimization).
class PartitionBasedLocking final : public SyncTechnique {
 public:
  Status Init(const Context& ctx) override;
  void BindWorker(WorkerId w, WorkerHandle* handle) override;
  Granularity granularity() const override {
    return Granularity::kPartitionLock;
  }

  bool AcquirePartition(WorkerId w, PartitionId p) override;
  void ReleasePartition(WorkerId w, PartitionId p) override;
  void HandleControl(WorkerId w, const WireMessage& msg) override;
  StuckChain FindStuckChain() override { return table_->FindStuckChain(); }

  /// Number of forks (distinct neighboring-partition pairs); the paper's
  /// O(|P|^2) bound. Valid after Init.
  int64_t num_forks() const { return table_->num_forks(); }

  static constexpr uint32_t kRequestTag = 20;
  static constexpr uint32_t kTransferTag = 21;

 private:
  std::unique_ptr<ChandyMisraTable> table_;
};

/// Vertex-based distributed locking (Section 4.3), the GraphLab-async
/// granularity and the |P| = |V| special case of partition-based locking
/// (Section 6.3). Every vertex is a philosopher; every graph edge carries
/// a fork, so the fork count is O(|E|) and every m-boundary execution
/// triggers cross-worker fork traffic plus a flush — the communication
/// overhead the paper measures against.
class VertexBasedLocking final : public SyncTechnique {
 public:
  Status Init(const Context& ctx) override;
  void BindWorker(WorkerId w, WorkerHandle* handle) override;
  Granularity granularity() const override {
    return Granularity::kVertexLock;
  }

  bool AcquireVertex(WorkerId w, VertexId v) override;
  void ReleaseVertex(WorkerId w, VertexId v) override;
  void HandleControl(WorkerId w, const WireMessage& msg) override;
  StuckChain FindStuckChain() override { return table_->FindStuckChain(); }

  /// Number of forks (= undirected edges). Valid after Init.
  int64_t num_forks() const { return table_->num_forks(); }

  static constexpr uint32_t kRequestTag = 30;
  static constexpr uint32_t kTransferTag = 31;

 private:
  std::unique_ptr<ChandyMisraTable> table_;
};

/// Proposition 1: constrained vertex-based distributed locking for
/// synchronous computation models. Every vertex is a philosopher (all
/// vertices act as philosophers, property (i)) and forks and request
/// tokens move only between sub-superstep barriers (property (ii)): the
/// engine polls VertexReady between barriers and executes exactly the
/// ready subset, so each superstep costs several barrier + flush rounds
/// — the overhead that led the paper to leave this variant on paper.
class ConstrainedBspVertexLocking final : public SyncTechnique {
 public:
  Status Init(const Context& ctx) override;
  void BindWorker(WorkerId w, WorkerHandle* handle) override;
  Granularity granularity() const override {
    return Granularity::kBspVertexLock;
  }

  bool VertexReady(WorkerId w, VertexId v) override;
  void RequestVertexForks(WorkerId w, VertexId v) override;
  void OnVertexExecuted(WorkerId w, VertexId v) override;
  /// Queues incoming fork traffic; nothing is applied mid-round, so a
  /// vertex's readiness cannot change while any worker is executing —
  /// exchanges land only in OnSubBarrier (property (ii)).
  void HandleControl(WorkerId w, const WireMessage& msg) override;
  void OnSubBarrier(WorkerId w) override;

  int64_t num_forks() const { return table_->num_forks(); }

  static constexpr uint32_t kRequestTag = 40;
  static constexpr uint32_t kTransferTag = 41;

 private:
  struct PendingControl {
    sy::Mutex mu;
    std::vector<WireMessage> messages SY_GUARDED_BY(mu);
  };

  std::unique_ptr<ChandyMisraTable> table_;
  std::vector<std::unique_ptr<PendingControl>> queues_;
};

}  // namespace serigraph

#endif  // SERIGRAPH_SYNC_DISTRIBUTED_LOCKING_H_
