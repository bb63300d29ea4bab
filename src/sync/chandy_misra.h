#ifndef SERIGRAPH_SYNC_CHANDY_MISRA_H_
#define SERIGRAPH_SYNC_CHANDY_MISRA_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/waitfor.h"
#include "sync/technique.h"

namespace serigraph {

/// Generic hygienic dining philosophers coordinator (Chandy & Misra 1984),
/// the machinery behind both vertex-based (Section 4.3) and
/// partition-based (Section 5.4) distributed locking. Philosophers are
/// identified by dense int64 ids; the instantiation decides whether an id
/// is a vertex or a partition.
///
/// Protocol state per (philosopher, neighbor) pair is a byte in a
/// dual-layer hash map (philosopher id -> neighbor id -> bits), exactly
/// the representation the paper describes in Section 6.3. Initial
/// placement is acyclic: for every edge the smaller id holds the request
/// token and the larger id holds the fork, dirty.
///
/// Guarantees (from the Chandy-Misra algorithm): no two neighbors eat
/// concurrently, no deadlock, no starvation. The flush callback is
/// invoked before a fork is transferred to a philosopher owned by a
/// different worker, implementing the write-all rule (condition C1).
class ChandyMisraTable {
 public:
  using PhilosopherId = int64_t;

  struct Config {
    /// Number of philosophers (ids are [0, count)).
    PhilosopherId count = 0;
    /// Neighbor lists; adjacency must be symmetric and self-free.
    std::vector<std::vector<PhilosopherId>> adjacency;
    /// Owning worker of each philosopher.
    std::function<WorkerId(PhilosopherId)> worker_of;
    int num_workers = 0;
    /// Control-message tags to use on the wire (distinct per instance).
    uint32_t request_tag = 0;
    uint32_t transfer_tag = 1;
    MetricRegistry* metrics = nullptr;
    /// Optional hook for protocol-state inconsistencies that only a lost
    /// control message can produce (a request for a fork that never
    /// arrived, a transfer for a fork already held). When set, the
    /// offending message is dropped and the violation reported — the
    /// caller is expected to abort and recover the attempt. When null,
    /// such a state is a genuine protocol bug and is fatal. Invoked with
    /// no shard lock held.
    std::function<void(WorkerId, const std::string&)> on_protocol_violation;
  };

  explicit ChandyMisraTable(Config config);

  ChandyMisraTable(const ChandyMisraTable&) = delete;
  ChandyMisraTable& operator=(const ChandyMisraTable&) = delete;

  /// Registers the handle used to send control messages / flush for
  /// philosophers owned by worker `w`.
  void BindWorker(WorkerId w, WorkerHandle* handle);

  /// Blocks the calling (compute) thread until `p` holds all its forks;
  /// marks `p` eating and returns true. Fatal after a long stall
  /// (deadlock detector for tests; the protocol itself cannot deadlock).
  /// When introspection is enabled, publishes the missing forks as
  /// wait-for edges while blocked and returns false — with `p` back in
  /// the thinking state, forks NOT held — if an Introspector abort is
  /// requested mid-wait.
  bool Acquire(PhilosopherId p);

  /// Marks `p` thinking, dirties its forks, and serves deferred requests.
  void Release(PhilosopherId p);

  // --- barrier-synchronized mode (paper Proposition 1) -----------------
  // The constrained technique for synchronous models never blocks inside
  // Acquire; instead the engine polls readiness between sub-supersteps
  // and executes only philosophers that hold every fork. Philosophers
  // stay in the thinking state throughout, so requests arriving between
  // sub-supersteps are served immediately (dirty forks yield) or
  // deferred (clean forks stick with their next eater).

  /// True if `p` currently holds all of its forks.
  bool HoldsAllForks(PhilosopherId p);

  /// Sends requests for every fork `p` is missing and still has the
  /// request token for. Idempotent across sub-supersteps: once the token
  /// is spent the request is outstanding.
  void RequestMissingForks(PhilosopherId p);

  /// Records that `p` just executed (between barriers): its forks become
  /// dirty and deferred requests are served. The engine must guarantee
  /// no neighbor executed concurrently (it does, by construction).
  void MarkEaten(PhilosopherId p);

  /// Handles a REQUEST or TRANSFER control message addressed to a
  /// philosopher owned by worker `w`. Called from comm threads.
  void HandleControl(WorkerId w, const WireMessage& msg);

  /// True if `msg` belongs to this table (by tag).
  bool Owns(const WireMessage& msg) const {
    return msg.tag == config_.request_tag || msg.tag == config_.transfer_tag;
  }

  /// Number of shared forks (edges in the philosopher adjacency).
  int64_t num_forks() const { return num_forks_; }

  /// The watchdog's read-only deadlock probe: a StuckChain (obs/waitfor.h)
  /// of philosophers blocked in Acquire, or empty. Reads only the blocked
  /// philosophers and the holders of their missing forks, one shard lock
  /// at a time.
  StuckChain FindStuckChain();

 private:
  enum class State : uint8_t { kThinking = 0, kHungry = 1, kEating = 2 };

  // Bits of the per-edge state byte (Section 6.3).
  static constexpr uint8_t kHasFork = 1;
  static constexpr uint8_t kDirty = 2;
  static constexpr uint8_t kHasToken = 4;

  struct Philosopher {
    State state = State::kThinking;
    int missing_forks = 0;
    /// Bumped on every change to `state` or the edge bits, so equal
    /// versions across two probes mean the philosopher did not move.
    uint64_t version = 0;
    /// neighbor id -> state byte.
    std::unordered_map<PhilosopherId, uint8_t> edges;
  };

  /// All philosophers of one worker share a mutex + cv; cross-worker
  /// interaction happens only via control messages.
  struct WorkerShard {
    sy::Mutex mu;
    sy::CondVar cv;
    std::unordered_map<PhilosopherId, Philosopher> philosophers
        SY_GUARDED_BY(mu);
    /// Philosophers blocked in Acquire (at most one per compute thread):
    /// the only ones FindStuckChain starts from.
    std::vector<PhilosopherId> waiting SY_GUARDED_BY(mu);
    WorkerHandle* handle SY_GUARDED_BY(mu) = nullptr;
  };

  WorkerShard& ShardOf(PhilosopherId p) {
    return *shards_[config_.worker_of(p)];
  }

  /// Sends REQUEST(p -> q): p gives up the request token to ask q for the
  /// shared fork. `shard` is p's shard, locked by the caller.
  void SendRequestLocked(WorkerShard& shard, PhilosopherId p, PhilosopherId q)
      SY_REQUIRES(shard.mu);

  /// Sends TRANSFER(p -> q): p relinquishes the (cleaned) fork to q,
  /// flushing data messages first if q lives on another worker. `shard`
  /// is p's shard, locked by the caller.
  void SendTransferLocked(WorkerShard& shard, PhilosopherId p, PhilosopherId q)
      SY_REQUIRES(shard.mu);

  void OnRequest(WorkerShard& shard, PhilosopherId from, PhilosopherId to)
      SY_EXCLUDES(shard.mu);
  void OnTransfer(WorkerShard& shard, PhilosopherId from, PhilosopherId to)
      SY_EXCLUDES(shard.mu);

  /// Routes a fork-state inconsistency to `on_protocol_violation` (fatal
  /// when the hook is unset). Must be called with no shard lock held: the
  /// hook takes engine-side locks that may not nest under sync.shard.
  void ReportViolation(PhilosopherId from, PhilosopherId to, const char* what);

  Config config_;
  std::vector<std::unique_ptr<WorkerShard>> shards_;
  int64_t num_forks_ = 0;

  Counter* fork_requests_ = nullptr;
  Counter* fork_transfers_ = nullptr;
  Counter* cross_worker_transfers_ = nullptr;
  Counter* handover_flushes_ = nullptr;
};

}  // namespace serigraph

#endif  // SERIGRAPH_SYNC_CHANDY_MISRA_H_
