#ifndef SERIGRAPH_SYNC_TECHNIQUE_H_
#define SERIGRAPH_SYNC_TECHNIQUE_H_

#include <functional>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/partitioning.h"
#include "net/message.h"

namespace serigraph {

/// Which synchronization technique an engine run uses (paper Sections 4-5).
enum class SyncMode {
  kNone = 0,             ///< plain BSP/AP; no serializability guarantee
  kSingleLayerToken = 1, ///< Section 4.2 (Giraphx-style, one thread/worker)
  kDualLayerToken = 2,   ///< Section 5.3 (partition aware)
  kVertexLocking = 3,    ///< Section 4.3 (Chandy-Misra, vertices eat)
  kPartitionLocking = 4, ///< Section 5.4 (Chandy-Misra, partitions eat)
  /// Proposition 1: constrained vertex-based locking for synchronous
  /// models — all vertices are philosophers and forks/tokens are
  /// exchanged only at global (sub-superstep) barriers. Requires the BSP
  /// model. The paper proves it correct but does not implement it
  /// because it multiplies BSP's barrier costs; we implement it and
  /// measure exactly that (bench/prop1_bsp_locking).
  kConstrainedBspLocking = 5,
};

const char* SyncModeName(SyncMode mode);

/// Engine-side services a technique may use, one handle per worker. The
/// engine implements this; techniques stay independent of message types.
class WorkerHandle {
 public:
  virtual ~WorkerHandle() = default;

  /// Flushes this worker's buffered data messages destined to `dst` onto
  /// the wire. Used to implement the write-all rule (condition C1): a
  /// worker flushes pending remote replica updates before handing a shared
  /// resource (fork/token) to another worker. Delivery-before-handover is
  /// guaranteed by the transport's per-(src,dst) FIFO order.
  virtual void FlushRemoteTo(WorkerId dst) = 0;

  /// Flushes buffered data messages to all workers.
  virtual void FlushAllRemote() = 0;

  /// Sends a control message (kind kControl) to worker `dst` on behalf of
  /// the technique. Tag/operands are technique-defined; the engine routes
  /// incoming control messages back to SyncTechnique::HandleControl.
  virtual void SendControl(WorkerId dst, uint32_t tag, int64_t a, int64_t b,
                           int64_t c) = 0;

  virtual WorkerId worker_id() const = 0;
};

/// A synchronization technique that enforces conditions C1 and C2
/// (Section 3.3) on top of the asynchronous (AP) engine, thereby providing
/// one-copy serializability (Theorem 1).
///
/// Threading contract:
///  * Acquire*/Release*/MayExecuteVertex/OnSuperstep* are called from
///    compute threads (Acquire* may block).
///  * HandleControl is called from the owning worker's communication
///    thread and must never block on protocol progress.
class SyncTechnique {
 public:
  /// How the engine drives the technique.
  enum class Granularity {
    kNone,          ///< no gating at all
    kVertexGate,    ///< filter vertices via MayExecuteVertex (token passing)
    kPartitionLock, ///< Acquire/ReleasePartition around partition execution
    kVertexLock,    ///< Acquire/ReleaseVertex around each vertex execution
    kBspVertexLock, ///< Proposition 1: sub-superstep polling, barrier-only
                    ///< fork exchange (synchronous models)
  };

  struct Context {
    const Graph* graph = nullptr;
    const Partitioning* partitioning = nullptr;
    /// Set by the engine only for the token-passing techniques, which
    /// are its only readers; null for the others.
    const BoundaryInfo* boundaries = nullptr;
    MetricRegistry* metrics = nullptr;
    /// When set (fault-injection runs), protocol-state inconsistencies
    /// that only message loss can produce are reported here as a
    /// recoverable failure instead of crashing the process. Invoked from
    /// comm threads with no technique lock held. Null in fault-free runs,
    /// where such an inconsistency is a genuine bug and stays fatal.
    std::function<void(WorkerId, const std::string&)> on_protocol_violation;
  };

  virtual ~SyncTechnique() = default;

  /// One-time setup after the graph is partitioned ("input loading" in the
  /// paper: dependency exchange, initial fork/token placement).
  virtual Status Init(const Context& ctx) = 0;

  /// Registers worker `w`'s handle. Called once per worker before the run.
  virtual void BindWorker(WorkerId w, WorkerHandle* handle) = 0;

  virtual Granularity granularity() const = 0;

  /// Single-layer token passing cannot use multithreaded workers
  /// (Section 4.2); the engine honors this by clamping compute threads.
  virtual bool RequiresSingleComputeThread() const { return false; }

  /// kVertexGate only: may vertex `v` execute in `superstep` on worker `w`?
  virtual bool MayExecuteVertex(WorkerId w, int superstep, VertexId v) {
    (void)w;
    (void)superstep;
    (void)v;
    return true;
  }

  /// kPartitionLock only: blocks until partition `p` may execute and
  /// returns true. Returns false — with the lock NOT held — only when an
  /// Introspector abort interrupted the wait; the caller must skip the
  /// execution and must not call ReleasePartition.
  virtual bool AcquirePartition(WorkerId w, PartitionId p) {
    (void)w;
    (void)p;
    return true;
  }
  virtual void ReleasePartition(WorkerId w, PartitionId p) {
    (void)w;
    (void)p;
  }

  /// kVertexLock only: blocks until vertex `v` may execute and returns
  /// true; false under the same abort contract as AcquirePartition.
  virtual bool AcquireVertex(WorkerId w, VertexId v) {
    (void)w;
    (void)v;
    return true;
  }
  virtual void ReleaseVertex(WorkerId w, VertexId v) {
    (void)w;
    (void)v;
  }

  /// Superstep lifecycle, called from worker main loops between barriers.
  virtual void OnSuperstepStart(WorkerId w, int superstep) {
    (void)w;
    (void)superstep;
  }
  /// Called after the worker flushed and acked all remote messages for the
  /// superstep (so token handovers here satisfy C1).
  virtual void OnSuperstepEnd(WorkerId w, int superstep) {
    (void)w;
    (void)superstep;
  }

  /// A control message addressed to this technique arrived at worker `w`.
  virtual void HandleControl(WorkerId w, const WireMessage& msg) {
    (void)w;
    (void)msg;
  }

  // kBspVertexLock only (Proposition 1); called between sub-superstep
  // barriers, never concurrently with a neighbor's execution.
  /// True if `v` holds every fork and may execute this sub-superstep.
  virtual bool VertexReady(WorkerId w, VertexId v) {
    (void)w;
    (void)v;
    return true;
  }
  /// Requests the forks `v` is missing (idempotent per outstanding fork).
  virtual void RequestVertexForks(WorkerId w, VertexId v) {
    (void)w;
    (void)v;
  }
  /// Marks `v` executed: dirties its forks, serves deferred requests.
  virtual void OnVertexExecuted(WorkerId w, VertexId v) {
    (void)w;
    (void)v;
  }
  /// Called inside the sub-superstep barrier window, when no vertex is
  /// executing anywhere: the only point where queued fork/token traffic
  /// may be applied (Proposition 1 property (ii)).
  virtual void OnSubBarrier(WorkerId w) { (void)w; }
};

/// Trivial technique for SyncMode::kNone.
class NoSync final : public SyncTechnique {
 public:
  Status Init(const Context&) override { return Status::OK(); }
  void BindWorker(WorkerId, WorkerHandle*) override {}
  Granularity granularity() const override { return Granularity::kNone; }
};

/// Creates the technique for `mode`. The returned object must be
/// Init()-ed and bound to workers by the engine before use.
std::unique_ptr<SyncTechnique> MakeSyncTechnique(SyncMode mode);

}  // namespace serigraph

#endif  // SERIGRAPH_SYNC_TECHNIQUE_H_
