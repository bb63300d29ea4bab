#ifndef SERIGRAPH_PREGEL_ENGINE_H_
#define SERIGRAPH_PREGEL_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/bitmap.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/planted.h"
#include "common/schedule_hooks.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/threading.h"
#include "common/timer.h"
#include "fault/fault.h"
#include "fault/supervisor.h"
#include "graph/graph.h"
#include "graph/partitioning.h"
#include "net/transport.h"
#include "obs/flightrec.h"
#include "obs/introspect.h"
#include "obs/memprof.h"
#include "obs/perfcounters.h"
#include "obs/report.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "pregel/checkpoint.h"
#include "pregel/message_codec.h"
#include "pregel/message_store.h"
#include "pregel/model.h"
#include "sync/technique.h"
#include "verify/history.h"

namespace serigraph {

/// Vertex-centric execution engine in the style of Pregel/Giraph, with
/// both the BSP and AP computation models and pluggable synchronization
/// techniques that make AP executions serializable (paper Sections 2-6).
///
/// A Program supplies:
///   using VertexValue = ...;      // per-vertex state (the "color")
///   using Message = ...;          // trivially copyable, or specialize
///                                 // MessageCodec<Message>
///   VertexValue InitialValue(VertexId v, const Graph& g) const;
///   template <typename Ctx>
///   void Compute(Ctx& ctx, std::span<const Message> messages) const;
/// and optionally a message combiner:
///   static Message Combine(const Message& a, const Message& b);
/// and, with it, the combiner's identity (Combine(kCombineIdentity, m)
/// == m bit for bit, e.g. 0.0 for a sum, the maximum for a min):
///   static constexpr Message kCombineIdentity = ...;
/// A flat Message with both is pull-capable (kPullCapable).
///
/// Compute() sees the Pregel API through Ctx: id(), superstep(), value(),
/// set_value(), out_neighbors(), SendTo(), SendToAllOutNeighbors(),
/// VoteToHalt(), num_vertices().
///
/// An Engine instance runs exactly once; construct a new one per run.
template <typename Program>
class Engine {
 public:
  using VertexValue = typename Program::VertexValue;
  using Message = typename Program::Message;

  /// True if the program declares a message combiner.
  static constexpr bool kHasCombiner =
      requires(const Message& a, const Message& b) {
        { Program::Combine(a, b) } -> std::convertible_to<Message>;
      };

  /// True if the program is structurally eligible for the per-superstep
  /// push/pull switch (docs/PERF.md): broadcasts fold through the
  /// combiner, the payload can live in a flat per-vertex array, and the
  /// combiner has an identity, which seeds the gather and fills a silent
  /// in-neighbor's slot, so a dense gather folds every slot without
  /// testing which in-neighbors broadcast. Whether pull actually engages
  /// is a runtime decision (BSP, no sync technique, no recorder — see
  /// Run()); a superstep whose barrier writes a checkpoint always pushes
  /// (DecidePull).
  static constexpr bool kPullCapable =
      kHasCombiner && std::is_trivially_copyable_v<Message> && requires {
        { Program::kCombineIdentity } -> std::convertible_to<Message>;
      };

  /// Flat payloads stage every send (SendStaging): remote records reach
  /// the out-buffers in one locked drain per destination, and BSP local
  /// records go through partition bins. Other payloads (Triangles'
  /// NeighborList) encode straight into the out-buffer.
  static constexpr bool kStaged = std::is_trivially_copyable_v<Message>;

  struct Result {
    RunStats stats;
    /// Final vertex values, indexed by vertex id.
    std::vector<VertexValue> values;
    /// Transaction history, present iff options.record_history.
    std::shared_ptr<HistoryRecorder> history;
  };

  Engine(const Graph* graph, EngineOptions options)
      : graph_(graph), options_(std::move(options)) {
    SG_CHECK(graph_ != nullptr);
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Overrides the partitioning built from EngineOptions. Must agree with
  /// options.num_workers and the graph's vertex count.
  Status UsePartitioning(Partitioning partitioning) {
    if (partitioning.num_vertices() != graph_->num_vertices()) {
      return Status::InvalidArgument("partitioning vertex count mismatch");
    }
    if (partitioning.num_workers() != options_.num_workers) {
      return Status::InvalidArgument("partitioning worker count mismatch");
    }
    partitioning_ = std::move(partitioning);
    has_partitioning_ = true;
    return Status::OK();
  }

  /// Executes the program to completion (or max_supersteps).
  StatusOr<Result> Run(const Program& program);

  /// Valid after Run() (or UsePartitioning()).
  const Partitioning& partitioning() const { return partitioning_; }

  /// Whether this program's state can be checkpointed (Section 6.4).
  static constexpr bool kCheckpointable =
      std::is_trivially_copyable_v<VertexValue> &&
      std::is_trivially_copyable_v<Message>;

  /// Path of the most recent checkpoint written by Run(), empty if none.
  const std::string& last_checkpoint_path() const {
    return last_checkpoint_path_;
  }

  /// Number of aggregator slots available to programs (Pregel-style
  /// aggregators: values contributed during superstep s are reduced at
  /// the barrier and visible to every vertex in superstep s+1).
  static constexpr int kNumAggregatorSlots = 8;

 private:
  enum class AggOp : uint8_t { kUnused = 0, kSum = 1, kMin = 2, kMax = 3 };

  static void MergeAgg(double* into, AggOp op, double v) {
    switch (op) {
      case AggOp::kSum:
        *into += v;
        break;
      case AggOp::kMin:
        *into = v < *into ? v : *into;
        break;
      case AggOp::kMax:
        *into = v > *into ? v : *into;
        break;
      case AggOp::kUnused:
        break;
    }
  }

  /// Unsynchronized aggregator accumulation scoped to one partition run
  /// (or one constrained-BSP superstep): Compute's Aggregate* calls fold
  /// here lock-free and the owning thread merges the result into
  /// WorkerAggregates once, instead of taking the worker mutex per call.
  struct LocalAggregates {
    AggOp op[kNumAggregatorSlots] = {};
    double value[kNumAggregatorSlots] = {};
    bool any = false;

    void Fold(int slot, AggOp new_op, double v) {
      any = true;
      if (op[slot] == AggOp::kUnused) {
        op[slot] = new_op;
        value[slot] = v;
        return;
      }
      SG_DCHECK(op[slot] == new_op);
      MergeAgg(&value[slot], new_op, v);
    }
  };

  /// Per-worker aggregator accumulation for the current superstep.
  struct WorkerAggregates {
    sy::Mutex mu;
    AggOp op[kNumAggregatorSlots] SY_GUARDED_BY(mu) = {};
    double value[kNumAggregatorSlots] SY_GUARDED_BY(mu) = {};

    /// One lock acquisition merges a whole LocalAggregates batch.
    void MergeFrom(const LocalAggregates& local) {
      if (!local.any) return;
      sy::MutexLock lock(&mu);
      for (int slot = 0; slot < kNumAggregatorSlots; ++slot) {
        if (local.op[slot] == AggOp::kUnused) continue;
        if (op[slot] == AggOp::kUnused) {
          op[slot] = local.op[slot];
          value[slot] = local.value[slot];
          continue;
        }
        SG_DCHECK(op[slot] == local.op[slot]);
        MergeAgg(&value[slot], op[slot], local.value[slot]);
      }
    }
  };

  /// What the history recorder needs to know about one message: the
  /// in-edge index of (src -> dst) and the version the sender wrote
  /// (verify/history.h). Travels with the record — through staging,
  /// partition bins and the wire — only while a recorder is attached.
  struct Provenance {
    int64_t in_edge = 0;
    uint64_t version = 0;
  };

  // ------------------------------------------------------------------
  // Per-partition message state. The sharded MessageStore holds the
  // messages themselves: under BSP, arrivals are invisible until the
  // barrier Swap (the staleness the paper's Figure 2 shows); under AP
  // arrivals are visible immediately. Eligibility reads (`active_bits`,
  // store.pending_bits()) are lock-free bitmap words — no lock on the
  // hot path, and barrier accounting is a popcount.
  // ------------------------------------------------------------------
  struct PartitionStore {
    MessageStore<Message> store;
    /// Bit li set <=> local vertex li has NOT voted to halt. A bit flips
    /// only when the (exclusively) executing vertex changes its vote, or
    /// during single-threaded restore; other threads read it lock-free
    /// for eligibility (word-packed: see common/bitmap.h).
    Bitmap active_bits;
    /// Recorder deliveries waiting for the BSP swap (a message becomes
    /// visible only then). Appended once per applied batch or flushed
    /// bin, not per message; empty unless a history recorder is attached.
    sy::Mutex notify_mu;
    std::vector<Provenance> pending_notify SY_GUARDED_BY(notify_mu);
  };

  // ------------------------------------------------------------------
  // Per-worker state; implements the WorkerHandle the techniques use.
  // ------------------------------------------------------------------
  struct OutBuffer {
    sy::Mutex mu;
    sy::CondVar flushed_cv;
    BufferWriter writer SY_GUARDED_BY(mu);
    /// Sender-side combining map (used only when the program has a
    /// combiner and no recorder is attached): staged messages fold here
    /// keyed by destination vertex and are encoded at flush time.
    CombiningMap<Message> combine SY_GUARDED_BY(mu);
    /// Estimated encoded size of `combine`'s entries (flush trigger).
    int64_t combine_bytes SY_GUARDED_BY(mu) = 0;
    /// True while a flusher is encoding/sending outside the lock; a
    /// second flusher must wait on `flushed_cv` so that "flush returned"
    /// keeps meaning "everything previously buffered is on the wire".
    bool flushing SY_GUARDED_BY(mu) = false;
  };

  /// Partition-execution-scoped staging of remote sends: Compute() calls
  /// append here with no lock at all, and the whole batch folds/encodes
  /// into the out-buffers under one lock per destination when it drains.
  /// Drains happen before the partition's (or vertex's) forks can be
  /// released and before every constrained-BSP sub-barrier flush, so the
  /// write-all (C1) ordering is unchanged — staged records are always on
  /// the shared buffer by the time any handover or sub-barrier flush
  /// could need them. Buffers are pooled per worker and keep their
  /// capacity (steady-state zero allocation).
  struct SendStaging {
    struct Bucket {
      std::vector<std::pair<VertexId, Message>> records;
      /// records[i]'s provenance; filled only under a history recorder.
      std::vector<Provenance> provenance;
      int64_t bytes = 0;
    };
    std::vector<Bucket> per_dst;       // indexed by destination worker
    std::vector<WorkerId> touched;     // destinations with staged records

    /// GPOP-style partition bins (BSP path only): same-worker
    /// cross-partition sends collect here, keyed by destination
    /// partition, instead of random-accessing each destination store
    /// per message. Bins stay cache-resident (bounded by the flush
    /// threshold) and drain sequentially in partition order, one
    /// AppendBatch per bin. AP keeps the eager per-message DeliverLocal
    /// — Section 4.1 needs local replica updates visible immediately.
    struct LocalBin {
      std::vector<std::pair<int32_t, Message>> records;  // (li, payload)
      /// records[i]'s provenance; filled only under a history recorder.
      std::vector<Provenance> provenance;
    };
    std::vector<LocalBin> per_part;    // indexed by destination partition
    std::vector<PartitionId> parts_touched;
  };

  /// Records per local partition bin before it is force-flushed to the
  /// destination store. Sized so a bin (records + the store shard it
  /// lands in) stays within L1/L2 while amortizing the shard locks.
  static constexpr size_t kLocalBinFlushRecords = 512;

  /// What one partition run (or one constrained-BSP logical superstep)
  /// accumulates privately. Only the thread executing the run touches
  /// it, so every field is a plain store; FoldRun publishes it once, when
  /// the run ends.
  struct PartitionRun {
    LocalAggregates aggregates;
    /// Send staging; null unless kStaged.
    SendStaging* staging = nullptr;
    /// Tallies behind pregel.vertex_executions / messages_sent /
    /// local_sends and the worker's timeline row. A shared cell written
    /// per vertex execution turns every compute thread's update into a
    /// cache-line transfer (docs/PERF.md, "Hot-path statistics").
    int64_t executions = 0;
    int64_t messages = 0;
    int64_t local_sends = 0;
    /// Out-edges of the vertices this run captured a broadcast of (pull
    /// switch input, DecidePull).
    int64_t captured_edges = 0;
  };

  /// Holds one unit of pregel.max_concurrent_executions while a
  /// partition-wide grant (kNone, kPartitionLock) executes, released on
  /// every exit path including the abort returns.
  class PartitionGrant {
   public:
    explicit PartitionGrant(MaxGauge* gauge) : gauge_(gauge) {
      gauge_->Add(1);
    }
    ~PartitionGrant() { gauge_->Add(-1); }
    PartitionGrant(const PartitionGrant&) = delete;
    PartitionGrant& operator=(const PartitionGrant&) = delete;

   private:
    MaxGauge* gauge_;
  };

  struct WorkerState final : public WorkerHandle {
    Engine* engine = nullptr;
    WorkerId id = kInvalidWorker;
    std::vector<std::unique_ptr<OutBuffer>> out;  // per destination worker
    std::thread comm_thread;
    std::unique_ptr<ThreadPool> pool;  // null when 1 compute thread

    WorkerAggregates aggregates;

    /// Per-superstep accumulators for the timeline (atomic because a
    /// worker may run several compute threads); drained at each barrier.
    /// The execution and message counts arrive once per partition run
    /// (FoldRun).
    std::atomic<int64_t> ss_executions{0};
    std::atomic<int64_t> ss_messages{0};
    std::atomic<int64_t> ss_fork_wait_us{0};
    /// Per-superstep hardware/software counter deltas by phase, fed by
    /// the SY_PERF_SCOPE probes on this worker's threads (one relaxed
    /// load each when options.perf_counters is off); drained like the
    /// ss_* accumulators above.
    PerfPhaseAccum ss_perf;

    sy::Mutex ack_mu;
    sy::CondVar ack_cv;
    int acks_pending SY_GUARDED_BY(ack_mu) = 0;
    /// Peers this worker has sent data to since the last superstep-end
    /// flush; only those need a delivery confirmation (marker/ack).
    std::vector<std::atomic<uint8_t>> touched;

    /// Comm-thread-only scratch for ApplyDataBatch: decoded records
    /// grouped by destination partition so each store shard is locked
    /// once per batch instead of once per message.
    std::vector<std::vector<std::pair<int32_t, Message>>> batch_buckets;
    /// batch_buckets[p][i]'s provenance; filled only under a recorder.
    std::vector<std::vector<Provenance>> batch_provenance;
    std::vector<PartitionId> batch_touched;

    /// Reusable send-staging buffers; ProcessPartition checks one out
    /// for the duration of a partition's execution.
    sy::Mutex staging_mu;
    std::vector<std::unique_ptr<SendStaging>> staging_pool
        SY_GUARDED_BY(staging_mu);

    void FlushRemoteTo(WorkerId dst) override { engine->FlushBuffer(*this, dst); }
    void FlushAllRemote() override {
      for (WorkerId dst = 0; dst < engine->options_.num_workers; ++dst) {
        if (dst != id) engine->FlushBuffer(*this, dst);
      }
    }
    void SendControl(WorkerId dst, uint32_t tag, int64_t a, int64_t b,
                     int64_t c) override {
      WireMessage msg;
      msg.src = id;
      msg.dst = dst;
      msg.kind = MessageKind::kControl;
      msg.tag = tag;
      msg.a = a;
      msg.b = b;
      msg.c = c;
      engine->transport_->Send(std::move(msg));
    }
    WorkerId worker_id() const override { return id; }
  };

  // ------------------------------------------------------------------
  // The Pregel API surface handed to Program::Compute.
  // ------------------------------------------------------------------
  class Context {
   public:
    Context(Engine* engine, WorkerState* worker, VertexId vertex,
            int superstep, uint64_t version, PartitionRun* run)
        : engine_(engine),
          worker_(worker),
          vertex_(vertex),
          superstep_(superstep),
          version_(version),
          run_(run) {}

    VertexId id() const { return vertex_; }
    int superstep() const { return superstep_; }
    VertexId num_vertices() const { return engine_->graph_->num_vertices(); }

    const VertexValue& value() const { return engine_->values_[vertex_]; }
    void set_value(VertexValue value) {
      engine_->values_[vertex_] = std::move(value);
    }

    std::span<const VertexId> out_neighbors() const {
      return engine_->graph_->OutNeighbors(vertex_);
    }
    int64_t num_out_edges() const {
      return engine_->graph_->OutDegree(vertex_);
    }

    /// Sends `message` to vertex `target` (must be an out-neighbor for
    /// the serializability guarantees to apply; see paper Section 3.1).
    void SendTo(VertexId target, const Message& message) {
      int64_t in_edge = 0;
      if (engine_->recorder_ != nullptr) {
        in_edge = engine_->recorder_->InEdgeIndex(vertex_, target);
      }
      SendOverEdge(target, in_edge, message);
    }

    void SendToAllOutNeighbors(const Message& message) {
      if constexpr (kPullCapable) {
        // Pull-capture superstep: the broadcast value is parked in the
        // sender's slot of the double-buffered broadcast array; receivers
        // pull it over the in-edge CSR next superstep instead of the
        // engine materializing deg(v) message-store appends now.
        if (engine_->capture_bcast_) {
          const int64_t degree = engine_->graph_->OutDegree(vertex_);
          if (engine_->CaptureBroadcast(vertex_, message)) {
            run_->captured_edges += degree;
          }
          // Counter parity with the push path: a broadcast still "sends"
          // one message per out-edge as far as the stats are concerned.
          sent_count_ += degree;
          return;
        }
      }
      const std::span<const VertexId> targets = out_neighbors();
      if (engine_->recorder_ != nullptr) {
        // Provenance by out-edge position: no search per message.
        const std::span<const int64_t> in_edges =
            engine_->recorder_->ProvenanceOfOutEdges(vertex_);
        for (size_t i = 0; i < targets.size(); ++i) {
          SendOverEdge(targets[i], in_edges[i], message);
        }
        return;
      }
      for (VertexId target : targets) SendOverEdge(target, 0, message);
    }

    /// Aggregators (Pregel-style): contributions made during superstep s
    /// are reduced globally at the barrier; AggregatedValue returns the
    /// result of superstep s-1 (0 if the slot was never used). A slot
    /// must be used with one operation consistently.
    void AggregateSum(int slot, double value) {
      run_->aggregates.Fold(slot, AggOp::kSum, value);
    }
    void AggregateMin(int slot, double value) {
      run_->aggregates.Fold(slot, AggOp::kMin, value);
    }
    void AggregateMax(int slot, double value) {
      run_->aggregates.Fold(slot, AggOp::kMax, value);
    }
    double AggregatedValue(int slot) const {
      return engine_->global_aggregates_[slot];
    }

    /// Declares this vertex inactive until a message reactivates it.
    void VoteToHalt() { voted_halt_ = true; }

    bool voted_halt() const { return voted_halt_; }
    bool sent_any() const { return sent_count_ != 0; }
    /// Messages sent by this execution; the caller adds them to the
    /// run's tally once per vertex instead of once per message.
    int64_t sent_count() const { return sent_count_; }

   private:
    void SendOverEdge(VertexId target, int64_t in_edge,
                      const Message& message) {
      ++sent_count_;
      engine_->SendMessage(*worker_, *run_, target, message,
                           Provenance{in_edge, version_});
    }

    Engine* engine_;
    WorkerState* worker_;
    VertexId vertex_;
    int superstep_;
    uint64_t version_;
    PartitionRun* run_;
    bool voted_halt_ = false;
    int64_t sent_count_ = 0;
  };

  // --- setup --------------------------------------------------------

  Status Validate() {
    if (options_.num_workers < 1) {
      return Status::InvalidArgument("need at least one worker");
    }
    if (options_.sync_mode == SyncMode::kConstrainedBspLocking) {
      // Proposition 1's technique is specifically for synchronous models.
      if (options_.model != ComputationModel::kBsp) {
        return Status::InvalidArgument(
            "constrained vertex-based locking is the synchronous-model "
            "technique (Proposition 1); use kVertexLocking under AP");
      }
    } else if (options_.sync_mode != SyncMode::kNone &&
               options_.model == ComputationModel::kBsp) {
      // The regular techniques need eager local replica updates, which
      // synchronous models cannot provide (paper Section 4.1); only the
      // Proposition 1 variant (kConstrainedBspLocking) works under BSP.
      return Status::Unimplemented(
          "this technique requires the AP model; BSP cannot update local "
          "replicas eagerly (paper Section 4.1) - use "
          "kConstrainedBspLocking instead");
    }
    if (options_.partitions_per_worker == 0) {
      options_.partitions_per_worker = options_.num_workers;  // Giraph default
    }
    if (options_.compute_threads_per_worker < 1) {
      options_.compute_threads_per_worker = 1;
    }
    if ((options_.checkpoint_every > 0 || !options_.restore_path.empty()) &&
        !kCheckpointable) {
      return Status::Unimplemented(
          "checkpointing requires trivially copyable values and messages");
    }
    if (options_.fault.recover && !kCheckpointable) {
      return Status::Unimplemented(
          "in-engine recovery restores from checkpoints and requires "
          "trivially copyable values and messages");
    }
    if (options_.fault.recover && options_.fault.max_recovery_attempts < 1) {
      return Status::InvalidArgument("max_recovery_attempts must be >= 1");
    }
    return Status::OK();
  }

  void EnsurePartitioning() {
    if (has_partitioning_) return;
    switch (options_.partition_scheme) {
      case PartitionScheme::kHash:
        partitioning_ = Partitioning::Hash(
            graph_->num_vertices(), options_.num_workers,
            options_.partitions_per_worker, options_.partition_seed);
        break;
      case PartitionScheme::kContiguous:
        partitioning_ = Partitioning::Contiguous(
            graph_->num_vertices(), options_.num_workers,
            options_.partitions_per_worker);
        break;
    }
    has_partitioning_ = true;
  }

  // --- messaging ----------------------------------------------------

  /// Wire record: destination vertex, provenance (in-edge index and
  /// version, both 0 when no recorder is attached), payload.
  static void EncodeRecord(BufferWriter& writer, VertexId dst,
                           const Provenance& provenance,
                           const Message& message) {
    writer.WriteVarint(static_cast<uint64_t>(dst));
    writer.WriteVarint(static_cast<uint64_t>(provenance.in_edge));
    writer.WriteVarint(provenance.version);
    MessageCodec<Message>::Encode(writer, message);
  }

  /// Hands the recorder the deliveries of records just appended to `ps`:
  /// visible now under AP, at the next swap under BSP (SwapStore).
  void RecordDeliveries(PartitionStore& ps,
                        std::span<const Provenance> deliveries) {
    if (options_.model == ComputationModel::kBsp) {
      sy::MutexLock lock(&ps.notify_mu);
      std::ranges::copy(deliveries, std::back_inserter(ps.pending_notify));
      return;
    }
    for (const Provenance& d : deliveries) {
      recorder_->OnDeliver(d.in_edge, d.version);
    }
  }

  void DeliverLocal(VertexId dst, const Message& message,
                    const Provenance& provenance) {
    PartitionStore& ps = *stores_[partitioning_.PartitionOf(dst)];
    // Sampled append-cost probe: timing every append would make the
    // histogram itself the hot path.
    thread_local uint32_t append_tick = 0;
    if ((++append_tick & 255u) == 0) {
      const auto t0 = std::chrono::steady_clock::now();
      ps.store.Append(local_index_[dst], message);
      store_append_hist_->Record(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    } else {
      ps.store.Append(local_index_[dst], message);
    }
    if (recorder_ != nullptr) RecordDeliveries(ps, {&provenance, 1});
  }

  // --- push/pull switch (docs/PERF.md) --------------------------------

  /// Parks a pull-capture superstep's broadcast in the sender's slot and
  /// returns true if it is `v`'s first this superstep. `v` executes
  /// exclusively (Pregel semantics), so the value write is owner-
  /// exclusive plain; only the presence bit needs an atomic RMW
  /// (neighbors' bits share words). Readers gather after the barrier.
  bool CaptureBroadcast(VertexId v, const Message& message) {
    if constexpr (kPullCapable) {
      std::vector<Message>& vals = bcast_vals_[bcast_cur_];
      // A second broadcast in the same superstep folds, exactly like the
      // two messages would have combined in the store.
      const bool first = bcast_bits_[bcast_cur_].Set(static_cast<size_t>(v));
      vals[v] = first ? message : Program::Combine(vals[v], message);
      return first;
    }
    return false;
  }

  /// Empties the capture side: the slots of its broadcasters return to
  /// the combiner identity (a dense gather folds every in-neighbor's
  /// slot) and its presence bits clear. Single-threaded.
  void ClearCaptureSide() {
    if constexpr (kPullCapable) {
      std::vector<Message>& vals = bcast_vals_[bcast_cur_];
      Bitmap& bits = bcast_bits_[bcast_cur_];
      bits.ForEachSetBit(
          [&](size_t u) { vals[u] = Program::kCombineIdentity; });
      bits.ClearAll();
    }
  }

  /// Out-edges of partition `p`'s active or pending vertices.
  int64_t FrontierOutEdges(PartitionId p) const {
    const PartitionStore& ps = *stores_[p];
    const std::vector<VertexId>& vertices =
        partitioning_.VerticesOfPartition(p);
    int64_t edges = 0;
    ps.active_bits.ForEachSetBitUnion(
        ps.store.pending_bits(),
        [&](size_t li) { edges += graph_->OutDegree(vertices[li]); });
    return edges;
  }

  /// Whether `superstep` captures its broadcasts, from the out-edge share
  /// (per 1000 of |E|) of its potential broadcasters: a pull costs one
  /// gather per in-edge of the graph, a push kPullCostRatio gathers' worth
  /// per out-edge of its broadcasters. A superstep whose barrier writes a
  /// checkpoint pushes, even under kForcePull: no frame is then written
  /// while captured broadcasts are in flight, so the frame format needs
  /// no broadcast buffers, and the superstep a recovery resumes at never
  /// has anything to gather.
  bool DecidePull(int superstep, int64_t edge_share_milli) const {
    if (options_.checkpoint_every > 0 &&
        (superstep + 1) % options_.checkpoint_every == 0) {
      return false;
    }
    if (options_.push_pull == PushPullMode::kForcePull) return true;
    return edge_share_milli * kPullCostRatio >= 1000;
  }

  /// Records the frontier density and, when the switch is live, the
  /// out-edge share of `edges` (the DecidePull input).
  void RecordFrontier(int64_t eligible, int64_t edges) {
    last_density_milli_ = std::min<int64_t>(
        1000, DensityMilli(static_cast<size_t>(eligible),
                           static_cast<size_t>(graph_->num_vertices())));
    frontier_density_gauge_->Observe(last_density_milli_);
    if (!pull_enabled_) return;
    last_edge_share_milli_ = std::min<int64_t>(
        1000, DensityMilli(static_cast<size_t>(edges),
                           static_cast<size_t>(graph_->num_edges())));
  }

  /// Barrier serial section: record this superstep's frontier, publish
  /// its captured broadcasts for next superstep's gather (flip the double
  /// buffer), and decide whether the NEXT superstep captures. `total` is
  /// the barrier's eligible-vertex count (broadcasters included when this
  /// superstep captured) and `edges` the out-edges of its active or
  /// pending vertices; the captured broadcasters' out-edges are added
  /// here, standing in for their receivers.
  void AdvancePullEpoch(int superstep, int64_t total, int64_t edges,
                        bool stop) {
    const int64_t captured_edges =  // mo: the adds precede B1, B1 publishes
        captured_edges_.exchange(0, std::memory_order_relaxed);
    RecordFrontier(total, edges + captured_edges);
    if (!pull_enabled_) return;
    const bool captured = capture_bcast_;
    if (captured) {
      bcast_cur_ ^= 1;
      ClearCaptureSide();
    }
    gather_bcast_ = captured;
    gather_every_slot_ = captured_edges * 2 >= graph_->num_edges();
    capture_bcast_ =
        !stop && DecidePull(superstep + 1, last_edge_share_milli_);
    if (capture_bcast_) pull_supersteps_->Increment();
    SG_LOG(kDebug) << "push/pull: superstep " << superstep + 1
                   << (capture_bcast_ != captured ? " switches to "
                                                  : " stays ")
                   << (capture_bcast_ ? "pull" : "push") << " (edge share "
                   << last_edge_share_milli_ << "/1000, density "
                   << last_density_milli_ << "/1000)";
  }

  /// Routes one message. `provenance` is what a history recorder needs
  /// (zeros without one); it travels with the record on every path below
  /// except sender combining, which no recorder run takes (see Run()).
  void SendMessage(WorkerState& worker, PartitionRun& run, VertexId dst,
                   const Message& message, const Provenance& provenance) {
    SendStaging* staging = run.staging;
    const WorkerId dst_worker = partitioning_.WorkerOf(dst);
    if (dst_worker == worker.id) {
      ++run.local_sends;
      if (staging != nullptr && bsp_local_bins_) {
        // BSP only: the message is invisible until the next superstep
        // anyway, so it can sit in a cache-resident per-destination-
        // partition bin and land in the store as one AppendBatch per
        // partition, in partition order, instead of a random-access
        // append per message (GPOP-style scatter). AP never takes this
        // path — Section 4.1 freshness needs the eager DeliverLocal.
        const PartitionId p = partitioning_.PartitionOf(dst);
        typename SendStaging::LocalBin& bin = staging->per_part[p];
        if (bin.records.empty()) staging->parts_touched.push_back(p);
        bin.records.emplace_back(local_index_[dst], message);
        if (recorder_ != nullptr) bin.provenance.push_back(provenance);
        if (bin.records.size() >= kLocalBinFlushRecords) {
          FlushLocalBin(p, bin);
        }
        return;
      }
      // Local replica update: eager under AP (Section 4.1), hidden until
      // the next superstep under BSP (handled inside DeliverLocal).
      DeliverLocal(dst, message, provenance);
      return;
    }
    if (staging != nullptr) {
      // Lock-free staging: the record joins the partition-scoped batch
      // and reaches the out-buffer in one locked drain per destination.
      typename SendStaging::Bucket& bucket = staging->per_dst[dst_worker];
      if (bucket.records.empty()) {
        staging->touched.push_back(dst_worker);
        // mo: dirty hint; barrier orders the data
        worker.touched[dst_worker].store(1, std::memory_order_relaxed);
      }
      bucket.records.emplace_back(dst, message);
      if (recorder_ != nullptr) bucket.provenance.push_back(provenance);
      bucket.bytes += kCombinedRecordBytes;
      if (bucket.bytes >= options_.message_batch_bytes) {
        DrainStagingTo(worker, *staging, dst_worker);
      }
      return;
    }
    // Unstaged payloads (!kStaged) encode under the out lock, uncombined,
    // so the flush trigger sees the real encoded size.
    // mo: dirty hint; barrier orders the data
    worker.touched[dst_worker].store(1, std::memory_order_relaxed);
    OutBuffer& out = *worker.out[dst_worker];
    sy::MutexLock lock(&out.mu);
    EncodeRecord(out.writer, dst, provenance, message);
    if (static_cast<int64_t>(out.writer.size()) >=
        options_.message_batch_bytes) {
      FlushBufferLocked(worker, dst_worker, out);
    }
  }

  /// Per-record size estimate for a combined map entry (varint ids and
  /// the payload); only the flush trigger depends on it, so a rough
  /// constant is fine.
  static constexpr int64_t kCombinedRecordBytes =
      static_cast<int64_t>(sizeof(Message)) + 6;

  void FlushBuffer(WorkerState& worker, WorkerId dst) {
    OutBuffer& out = *worker.out[dst];
    sy::MutexLock lock(&out.mu);
    FlushBufferLocked(worker, dst, out);
  }

  /// Flushes `out` to the transport. Guarantee on return: every record
  /// encoded or folded into `out` before the call is on the wire — the
  /// superstep-end marker protocol and a fork handover's freshness
  /// argument (condition C1) both rely on exactly that. Encoding of the
  /// combined records happens *outside* the lock (it is the expensive
  /// part); a concurrent flusher waits on `flushed_cv` instead of
  /// overtaking the in-flight batch.
  void FlushBufferLocked(WorkerState& worker, WorkerId dst, OutBuffer& out)
      SY_REQUIRES(out.mu) {
    while (out.flushing) out.flushed_cv.Wait(out.mu);
    const bool have_combined = out.combine.size() != 0;
    if (out.writer.size() == 0 && !have_combined) return;
    SG_TRACE_SPAN("net.flush_batch");
    flushes_->Increment();
    std::vector<uint8_t> payload = out.writer.Release();
    out.writer.Clear();
    thread_local std::vector<std::pair<VertexId, Message>> staging;
    staging.clear();
    if (have_combined) out.combine.Drain(&staging);
    out.combine_bytes = 0;
    out.flushing = true;
    out.mu.Unlock();
    if (!staging.empty()) {
      BufferWriter writer;
      writer.Adopt(std::move(payload));
      for (const auto& [dst_vertex, message] : staging) {
        // A combined record folds several sends, so it has no single
        // provenance; history recording disables sender combining.
        EncodeRecord(writer, dst_vertex, Provenance{}, message);
      }
      payload = writer.Release();
    }
    WireMessage msg;
    msg.src = worker.id;
    msg.dst = dst;
    msg.kind = MessageKind::kDataBatch;
    msg.payload = std::move(payload);
    transport_->Send(std::move(msg));
    out.mu.Lock();
    out.flushing = false;
    out.flushed_cv.NotifyAll();
  }

  /// Moves one staged destination bucket into the shared out-buffer
  /// under a single lock acquisition. Called when a bucket fills and
  /// from DrainStaging before any fork release, so the C1 guarantee
  /// ("flush-before-handover") sees staged records as already buffered.
  void DrainStagingTo(WorkerState& worker, SendStaging& staging,
                      WorkerId dst_worker) {
    typename SendStaging::Bucket& bucket = staging.per_dst[dst_worker];
    if (bucket.records.empty()) return;
    OutBuffer& out = *worker.out[dst_worker];
    sy::MutexLock lock(&out.mu);
    if constexpr (kHasCombiner) {
      if (sender_combining_) {
        for (const auto& [dst, message] : bucket.records) {
          if (out.combine.Fold(dst, message,
                               [](const Message& a, const Message& b) {
                                 return Program::Combine(a, b);
                               })) {
            out.combine_bytes += kCombinedRecordBytes;
          }
        }
        bucket.records.clear();
        bucket.bytes = 0;
        if (static_cast<int64_t>(out.writer.size()) + out.combine_bytes >=
            options_.message_batch_bytes) {
          FlushBufferLocked(worker, dst_worker, out);
        }
        return;
      }
    }
    const bool recorded = !bucket.provenance.empty();
    for (size_t i = 0; i < bucket.records.size(); ++i) {
      const auto& [dst, message] = bucket.records[i];
      EncodeRecord(out.writer, dst,
                   recorded ? bucket.provenance[i] : Provenance{}, message);
    }
    bucket.records.clear();
    bucket.provenance.clear();
    bucket.bytes = 0;
    if (static_cast<int64_t>(out.writer.size()) >=
        options_.message_batch_bytes) {
      FlushBufferLocked(worker, dst_worker, out);
    }
  }

  /// Empties one partition bin into its destination store (one batched
  /// append under that store's shard locks, and under a recorder one
  /// locked append of the bin's deliveries).
  void FlushLocalBin(PartitionId p, typename SendStaging::LocalBin& bin) {
    PartitionStore& ps = *stores_[p];
    ps.store.AppendBatch(std::span(bin.records));
    bin.records.clear();
    if (!bin.provenance.empty()) {
      RecordDeliveries(ps, bin.provenance);
      bin.provenance.clear();
    }
    bin_flushes_->Increment();
  }

  void DrainStaging(WorkerState& worker, SendStaging& staging) {
    if (!staging.parts_touched.empty()) {
      // Sequential gather: visit destination partitions in order so the
      // stores' slot arrays are walked front-to-back, not in send order.
      std::sort(staging.parts_touched.begin(), staging.parts_touched.end());
      for (PartitionId p : staging.parts_touched) {
        FlushLocalBin(p, staging.per_part[p]);
      }
      staging.parts_touched.clear();
    }
    for (WorkerId dst : staging.touched) DrainStagingTo(worker, staging, dst);
    staging.touched.clear();
  }

  SendStaging* AcquireStaging(WorkerState& worker) {
    sy::MutexLock lock(&worker.staging_mu);
    if (worker.staging_pool.empty()) {
      auto fresh = std::make_unique<SendStaging>();
      fresh->per_dst.resize(static_cast<size_t>(options_.num_workers));
      if (bsp_local_bins_) {
        fresh->per_part.resize(
            static_cast<size_t>(partitioning_.num_partitions()));
      }
      worker.staging_pool.push_back(std::move(fresh));
    }
    SendStaging* staging = worker.staging_pool.back().release();
    worker.staging_pool.pop_back();
    return staging;
  }

  void ReleaseStaging(WorkerState& worker, SendStaging* staging) {
    sy::MutexLock lock(&worker.staging_mu);
    worker.staging_pool.emplace_back(staging);
  }

  void ApplyDataBatch(WorkerState& worker, const WireMessage& wire) {
    BufferReader reader(wire.payload);
    // Decode into per-partition buckets first, then apply each bucket
    // with one lock acquisition per store shard touched.
    auto& buckets = worker.batch_buckets;
    auto& provenance = worker.batch_provenance;
    auto& touched = worker.batch_touched;
    const bool recording = recorder_ != nullptr;
    int64_t decoded = 0;
    while (!reader.AtEnd()) {
      uint64_t dst_raw = 0, in_edge = 0, version = 0;
      Message message{};
      SG_CHECK(reader.ReadVarint(&dst_raw));
      SG_CHECK(reader.ReadVarint(&in_edge));
      SG_CHECK(reader.ReadVarint(&version));
      SG_CHECK(MessageCodec<Message>::Decode(reader, &message));
      const VertexId dst = static_cast<VertexId>(dst_raw);
      const PartitionId p = partitioning_.PartitionOf(dst);
      if (buckets[p].empty()) touched.push_back(p);
      buckets[p].emplace_back(local_index_[dst], std::move(message));
      if (recording) {
        provenance[p].push_back({static_cast<int64_t>(in_edge), version});
      }
      ++decoded;
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (PartitionId p : touched) {
      stores_[p]->store.AppendBatch(std::span(buckets[p]));
      buckets[p].clear();
    }
    if (decoded > 0) {
      const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
      store_append_hist_->Record(ns / decoded);
    }
    // The deliveries reach the recorder before this batch returns, so
    // before any fork or marker that followed it on the channel is seen.
    if (recording) {
      for (PartitionId p : touched) {
        RecordDeliveries(*stores_[p], provenance[p]);
        provenance[p].clear();
      }
    }
    touched.clear();
  }

  // --- communication thread ------------------------------------------

  void CommLoop(WorkerState& worker) {
    sy::ScheduledThread sched_reg("comm", worker.id);
    if (Tracer::enabled()) {
      Tracer::Get().SetCurrentThreadName("comm-" + std::to_string(worker.id));
    }
    while (std::optional<WireMessage> msg = transport_->Receive(worker.id)) {
      switch (msg->kind) {
        case MessageKind::kDataBatch: {
          SG_TRACE_SPAN("net.inbox_drain");
          ApplyDataBatch(worker, *msg);
          break;
        }
        case MessageKind::kControl: {
          SG_TRACE_SPAN("sync.control");
          technique_->HandleControl(worker.id, *msg);
          break;
        }
        case MessageKind::kFlushMarker: {
          WireMessage ack;
          ack.src = worker.id;
          ack.dst = msg->src;
          ack.kind = MessageKind::kAck;
          ack.a = msg->a;
          transport_->Send(std::move(ack));
          break;
        }
        case MessageKind::kAck: {
          sy::MutexLock lock(&worker.ack_mu);
          // Exactly one thread (the worker loop) ever waits on ack_cv,
          // so waking one is enough.
          if (--worker.acks_pending == 0) worker.ack_cv.NotifyOne();
          break;
        }
        default:
          SG_LOG(kFatal) << "unexpected message kind";
      }
    }
  }

  /// Superstep-end write-all: flush outgoing buffers and confirm via
  /// marker/ack that every peer this worker sent data to has applied the
  /// messages (Giraph awaits delivery confirmations only for the remote
  /// messages it actually sent). Peers that received nothing need no
  /// round trip.
  void FlushAndAwaitAcks(WorkerState& worker, int superstep) {
    if (options_.num_workers == 1) return;
    std::vector<WorkerId> targets;
    for (WorkerId dst = 0; dst < options_.num_workers; ++dst) {
      if (dst == worker.id) continue;
      // mo: dirty hint; barrier orders the data
      if (worker.touched[dst].exchange(0, std::memory_order_relaxed)) {
        targets.push_back(dst);
      }
    }
    if (targets.empty()) return;
    {
      sy::MutexLock lock(&worker.ack_mu);
      worker.acks_pending = static_cast<int>(targets.size());
    }
    // Negative control (serichk): drop the marker/ack round-trip so the
    // worker crosses the superstep boundary without delivery
    // confirmation — flushed data may still sit in a peer's inbox when
    // its vertices execute, a C1 freshness violation. Planted *before*
    // the marker sends so no late ack can drive acks_pending negative.
    const bool skip_ack_wait = SG_PLANTED_BUG("engine.skip_ack_wait");
    for (WorkerId dst : targets) {
      FlushBuffer(worker, dst);
      if (skip_ack_wait) continue;
      WireMessage marker;
      marker.src = worker.id;
      marker.dst = dst;
      marker.kind = MessageKind::kFlushMarker;
      marker.a = superstep;
      transport_->Send(std::move(marker));
    }
    if (skip_ack_wait) return;
    ScopedBlocked blocked(supervisor_.get(), worker.id);
    sy::MutexLock lock(&worker.ack_mu);
    if (!fault_active_) {
      while (worker.acks_pending != 0) worker.ack_cv.Wait(worker.ack_mu);
      return;
    }
    // Under fault tolerance the confirmation may never arrive (the marker,
    // the ack, or the peer itself can be a casualty); wait in slices and
    // abandon the attempt once a failure has been detected.
    while (worker.acks_pending != 0 && !AttemptAborted(worker)) {
      worker.ack_cv.WaitFor(worker.ack_mu, std::chrono::milliseconds(20));
    }
  }

  /// True once this attempt cannot complete: a failure was detected
  /// (supervisor / crash handler) or this very worker "died". Workers
  /// poll this at superstep boundaries and in sliced waits to unwind.
  bool AttemptAborted(const WorkerState& worker) const {
    return attempt_failed_.load(std::memory_order_acquire) ||
           // mo: death flag; read is advisory
           worker_dead_[worker.id].load(std::memory_order_relaxed) != 0;
  }

  // --- vertex execution ----------------------------------------------

  /// True when the technique grants permission one vertex at a time, so
  /// pregel.max_concurrent_executions is held per executed vertex; the
  /// partition-wide grants hold it per partition run (PartitionGrant).
  bool GrantsPerVertex() const {
    return granularity_ != SyncTechnique::Granularity::kNone &&
           granularity_ != SyncTechnique::Granularity::kPartitionLock;
  }

  /// Publishes a finished run's private state: one write per shared cell
  /// per run instead of one per vertex execution or send.
  void FoldRun(WorkerState& worker, const PartitionRun& run) {
    executions_->Add(run.executions);
    messages_sent_->Add(run.messages);
    local_sends_->Add(run.local_sends);
    if (run.captured_edges != 0) {
      // mo: per-superstep stat, published by the barrier
      captured_edges_.fetch_add(run.captured_edges, std::memory_order_relaxed);
    }
    // mo: per-superstep stat
    worker.ss_executions.fetch_add(run.executions, std::memory_order_relaxed);
    // mo: per-superstep stat
    worker.ss_messages.fetch_add(run.messages, std::memory_order_relaxed);
    worker.aggregates.MergeFrom(run.aggregates);
  }

  /// Executes `v` if it is active or has messages. Returns true if the
  /// vertex actually ran. Caller must already hold the technique's
  /// permission (fork/token) for `v`.
  bool ExecuteVertexIfEligible(WorkerState& worker, PartitionStore& ps,
                               const Program& program, VertexId v,
                               int superstep, PartitionRun& run) {
    if (Introspector::enabled()) Introspector::Get().OnProgress(worker.id);
    if (supervisor_ != nullptr) supervisor_->Beat(worker.id);
    // BSP consumes a zero-copy span of the partition's flat buffer (no
    // lock); AP detaches the arrival chain into this per-thread scratch.
    thread_local std::vector<Message> scratch;
    const int32_t li = local_index_[v];
    std::span<const Message> messages = ps.store.Consume(li, &scratch);
    if constexpr (kPullCapable) {
      if (gather_bcast_) {
        // Gather superstep: fold the previous superstep's captured
        // broadcasts over the in-edge CSR — a sequential sweep of this
        // vertex's in-neighbors against the flat broadcast array —
        // and merge any store-delivered point sends (SendTo still
        // pushes). The fold is the same Combine the push path would
        // have applied append-by-append, seeded with the identity.
        const Bitmap& gbits = bcast_bits_[1 - bcast_cur_];
        const Message* gvals = bcast_vals_[1 - bcast_cur_].data();
        thread_local std::vector<Message> gather_scratch;
        bool have = false;
        Message folded = Program::kCombineIdentity;
        if (gather_every_slot_) {
          // Captures on most in-edges: fold every slot (a silent
          // in-neighbor's holds the identity), branch-free, and let the
          // presence bits only decide whether anything arrived. A
          // per-in-edge branch would mispredict at these shares.
          for (VertexId u : graph_->InNeighbors(v)) {
            folded = Program::Combine(folded, gvals[u]);
            have |= gbits.Test(static_cast<size_t>(u));
          }
        } else {
          // Sparse captures: the branch predicts well, and skipping the
          // silent in-neighbors saves their slot loads.
          for (VertexId u : graph_->InNeighbors(v)) {
            if (!gbits.Test(static_cast<size_t>(u))) continue;
            folded = Program::Combine(folded, gvals[u]);
            have = true;
          }
        }
        if (have) {
          for (const Message& m : messages) {
            folded = Program::Combine(folded, m);
          }
          gather_scratch.assign(1, folded);
          messages = std::span<const Message>(gather_scratch.data(), 1);
        }
      }
    }
    if (messages.empty() && !ps.active_bits.Test(li)) return false;

    ++run.executions;
    const bool per_vertex_grant = GrantsPerVertex();
    if (per_vertex_grant) concurrency_->Add(1);
    uint64_t version = 0;
    if (recorder_ != nullptr) {
      version = recorder_->OnTxnBegin(worker.id, v, superstep);
    }
    Context ctx(this, &worker, v, superstep, version, &run);
    program.Compute(ctx, messages);
    run.messages += ctx.sent_count();
    // Per-vertex execution is exclusive, so only this thread flips this
    // bit right now; the atomic word RMW keeps neighbors' concurrent
    // flips of sibling bits intact, and the barrier publishes the word
    // before the serial section popcounts it.
    const bool now_active = !ctx.voted_halt();
    if (now_active != ps.active_bits.Test(li)) {
      if (now_active) {
        ps.active_bits.Set(li);
      } else {
        ps.active_bits.Clear(li);
      }
    }
    if (recorder_ != nullptr) {
      recorder_->OnTxnEnd(worker.id, v, ctx.sent_any());
    }
    if (per_vertex_grant) concurrency_->Add(-1);
    return true;
  }

  /// True if any vertex of `p` is active or has pending messages; used
  /// for the Section 5.4 optimization of skipping halted partitions.
  /// Lock-free: bitmap word loads plus the store's pending counter.
  bool PartitionEligible(PartitionId p) {
    PartitionStore& ps = *stores_[p];
    return ps.active_bits.AnySet() || ps.store.pending() > 0;
  }

  /// Non-consuming eligibility check (lock-free under BSP).
  bool VertexEligible(PartitionStore& ps, VertexId v) {
    const int32_t li = local_index_[v];
    return ps.active_bits.Test(li) || ps.store.HasMessages(li);
  }

  void ProcessPartition(WorkerState& worker, const Program& program,
                        PartitionId p, int superstep) {
    // Counter attribution happens here, on the executing (pool) thread,
    // not around RunPartitions on the worker thread — the worker thread
    // only waits there. Fork waits nest inside this compute scope, like
    // they do in the wall-clock accounting.
    SY_PERF_SCOPE(&worker.ss_perf, PerfPhase::kCompute);
    PartitionStore& ps = *stores_[p];
    const std::vector<VertexId>& vertices =
        partitioning_.VerticesOfPartition(p);
    // Aggregator contributions and statistics tally lock-free in `run`
    // and fold into the worker and the registry once, after the
    // partition's vertices ran.
    PartitionRun run;
    // Sends stage lock-free into a partition-scoped buffer and reach the
    // shared out-buffer in one locked drain per destination worker.
    // Every fork release below is preceded by a drain, so a concurrent
    // fork handover's flush (condition C1) always finds this partition's
    // records already buffered.
    if constexpr (kStaged) run.staging = AcquireStaging(worker);
    ProcessPartitionVertices(worker, program, p, superstep, ps, vertices,
                             run);
    if (run.staging != nullptr) {
      DrainStaging(worker, *run.staging);
      ReleaseStaging(worker, run.staging);
    }
    FoldRun(worker, run);
  }

  /// Calls `body(v)` for each candidate vertex of partition `ps`: every
  /// vertex when `full_scan`, otherwise the set bits of active|pending
  /// (bitmap frontiers; the probe a set bit triggers is the one a full
  /// scan would make). Stops at the first `body` that returns false, and
  /// once the attempt is aborted — the one abort poll of a fault run's
  /// vertex loop. Heartbeats come from ExecuteVertexIfEligible.
  template <typename Body>
  void WalkCandidates(const WorkerState& worker, const PartitionStore& ps,
                      const std::vector<VertexId>& vertices, bool full_scan,
                      Body&& body) {
    const auto visit = [&](VertexId v) {
      return !(fault_active_ && AttemptAborted(worker)) && body(v);
    };
    if (full_scan) {
      for (VertexId v : vertices) {
        if (!visit(v)) return;
      }
      return;
    }
    // ForEachSetBitUnion has no break: after a stop the remaining bits
    // are cheap no-ops.
    bool go = true;
    ps.active_bits.ForEachSetBitUnion(
        ps.store.pending_bits(),
        [&](size_t li) { go = go && visit(vertices[li]); });
  }

  void ProcessPartitionVertices(WorkerState& worker, const Program& program,
                                PartitionId p, int superstep,
                                PartitionStore& ps,
                                const std::vector<VertexId>& vertices,
                                PartitionRun& run) {
    SendStaging* staging = run.staging;
    const auto execute = [&](VertexId v) {
      ExecuteVertexIfEligible(worker, ps, program, v, superstep, run);
      return true;
    };
    switch (granularity_) {
      case SyncTechnique::Granularity::kNone: {
        PartitionGrant granted(concurrency_);
        // Gather supersteps must probe every vertex: a halted vertex with
        // a broadcasting in-neighbor is eligible, but the broadcast was
        // captured, not stored, so no pending bit marks it. (A gather
        // sweeps every in-edge anyway, so a full scan is its shape.)
        WalkCandidates(worker, ps, vertices, /*full_scan=*/gather_bcast_,
                       execute);
        break;
      }
      case SyncTechnique::Granularity::kVertexGate:
        // Full scan: under AP a sparse walk would also skip vertices
        // whose messages land after their bitmap word was read, which
        // changes the token schedule's executions.
        WalkCandidates(worker, ps, vertices, /*full_scan=*/true,
                       [&](VertexId v) {
                         // Without its token, v stays pending.
                         if (technique_->MayExecuteVertex(worker.id,
                                                          superstep, v)) {
                           execute(v);
                         }
                         return true;
                       });
        break;
      case SyncTechnique::Granularity::kPartitionLock: {
        if (!PartitionEligible(p)) {
          skipped_partitions_->Increment();
          return;
        }
        if (fault_active_ && AttemptAborted(worker)) return;
        {
          SG_TRACE_SPAN("sync.fork_acquire");
          SY_PERF_SCOPE(&worker.ss_perf, PerfPhase::kForkWait);
          const int64_t t0 = Tracer::NowMicros();
          // Fork waits are legitimate long blocks; exempt them from the
          // supervisor's runnable-worker timeout.
          ScopedBlocked blocked(supervisor_.get(), worker.id);
          const bool acquired = technique_->AcquirePartition(worker.id, p);
          RecordForkWait(worker, Tracer::NowMicros() - t0);
          if (!acquired) return;  // watchdog abort: lock NOT held
        }
        {
          PartitionGrant granted(concurrency_);
          WalkCandidates(worker, ps, vertices, /*full_scan=*/false, execute);
        }
        // C1: staged sends must be in the out-buffer before the forks
        // can move — the handover flush only covers the shared buffers.
        if (staging != nullptr && !SkipStagingDrain()) {
          DrainStaging(worker, *staging);
        }
        technique_->ReleasePartition(worker.id, p);
        break;
      }
      case SyncTechnique::Granularity::kVertexLock: {
        const auto lock_and_execute = [&](VertexId v) {
          if (!VertexEligible(ps, v)) return true;
          {
            SG_TRACE_SPAN("sync.fork_acquire");
            SY_PERF_SCOPE(&worker.ss_perf, PerfPhase::kForkWait);
            const int64_t t0 = Tracer::NowMicros();
            ScopedBlocked blocked(supervisor_.get(), worker.id);
            const bool acquired = technique_->AcquireVertex(worker.id, v);
            RecordForkWait(worker, Tracer::NowMicros() - t0);
            if (!acquired) return false;  // watchdog abort: lock NOT held
          }
          execute(v);
          // C1, per vertex: drain before this vertex's forks release.
          if (staging != nullptr && !SkipStagingDrain()) {
            DrainStaging(worker, *staging);
          }
          technique_->ReleaseVertex(worker.id, v);
          return true;
        };
        WalkCandidates(worker, ps, vertices, /*full_scan=*/false,
                       lock_and_execute);
        break;
      }
      case SyncTechnique::Granularity::kBspVertexLock:
        // WorkerLoop runs this technique through RunSuperstepConstrainedBsp.
        SG_LOG(kFatal) << "constrained BSP reached the partition walk";
        break;
    }
  }

  /// Negative control (serichk): release forks with this run's staged
  /// remote sends still staged. A neighbor's handover flush then misses
  /// them and it executes on a stale replica, a C1 violation; the final
  /// drain in ProcessPartition delivers them too late.
  static bool SkipStagingDrain() {
    return SG_PLANTED_BUG("engine.skip_staging_drain");
  }

  void RunPartitions(WorkerState& worker, const Program& program,
                     int superstep) {
    const auto& parts = partitioning_.PartitionsOfWorker(worker.id);
    if (worker.pool != nullptr) {
      for (PartitionId p : parts) {
        worker.pool->Submit([this, &worker, &program, p, superstep] {
          ProcessPartition(worker, program, p, superstep);
        });
      }
      worker.pool->WaitIdle();
    } else {
      for (PartitionId p : parts) {
        ProcessPartition(worker, program, p, superstep);
      }
    }
  }

  /// Between barriers: publish BSP arrivals (store swap) and count this
  /// worker's vertices that are still active or have pending messages
  /// into active_counts_, and, when the pull switch is live, their
  /// out-edges into frontier_edges_ (a DecidePull input).
  void SwapAndCountActive(WorkerState& worker) {
    int64_t active = 0;
    int64_t edges = 0;
    const bool bsp = options_.model == ComputationModel::kBsp;
    for (PartitionId p : partitioning_.PartitionsOfWorker(worker.id)) {
      PartitionStore& ps = *stores_[p];
      if (bsp) SwapStore(ps);
      // Count = |active OR pending| in one word-parallel popcount sweep
      // (satellite: this used to re-read halted_[] per pending vertex,
      // an O(V) rescan every barrier).
      active +=
          static_cast<int64_t>(ps.active_bits.PopcountUnion(ps.store.pending_bits()));
      if (pull_enabled_) edges += FrontierOutEdges(p);
    }
    active_counts_[worker.id] = active;
    frontier_edges_[worker.id] = edges;
  }

  /// BSP store publish for one partition, timed into store.swap_us, plus
  /// the deferred recorder notifications (messages just became visible).
  void SwapStore(PartitionStore& ps) {
    const int64_t t0 = Tracer::NowMicros();
    ps.store.Swap();
    store_swap_hist_->Record(Tracer::NowMicros() - t0);
    if (recorder_ == nullptr) return;
    std::vector<Provenance> drained;
    {
      sy::MutexLock lock(&ps.notify_mu);
      drained.swap(ps.pending_notify);
    }
    for (const Provenance& d : drained) {
      recorder_->OnDeliver(d.in_edge, d.version);
    }
  }

  // --- checkpointing (Section 6.4) --------------------------------------

  /// Serializes values, halted flags, and message-store contents. Called
  /// from the barrier serial section: the state is consistent (nothing
  /// executing, nothing in flight).
  std::vector<uint8_t> EncodeState() {
    BufferWriter writer;
    if constexpr (kCheckpointable) {
      const VertexId n = graph_->num_vertices();
      writer.WriteVarint(static_cast<uint64_t>(n));
      writer.AppendRaw(values_.data(), sizeof(VertexValue) * n);
      // The on-disk format keeps the one-byte-per-vertex halted array so
      // pre-bitmap checkpoints stay readable; reconstruct it from the
      // per-partition bitmaps.
      std::vector<uint8_t> halted(static_cast<size_t>(n), 1);
      for (int p = 0; p < partitioning_.num_partitions(); ++p) {
        const auto& vertices = partitioning_.VerticesOfPartition(p);
        const Bitmap& bits = stores_[p]->active_bits;
        for (size_t i = 0; i < vertices.size(); ++i) {
          if (bits.Test(i)) halted[vertices[i]] = 0;
        }
      }
      writer.AppendRaw(halted.data(), n);
      writer.WriteVarint(stores_.size());
      for (int p = 0; p < partitioning_.num_partitions(); ++p) {
        PartitionStore& ps = *stores_[p];
        const auto& vertices = partitioning_.VerticesOfPartition(p);
        writer.WriteVarint(vertices.size());
        for (size_t i = 0; i < vertices.size(); ++i) {
          const int32_t li = static_cast<int32_t>(i);
          writer.WriteVarint(
              static_cast<uint64_t>(ps.store.VisibleCount(li)));
          ps.store.ForEachVisible(li, [&](const Message& m) {
            MessageCodec<Message>::Encode(writer, m);
          });
        }
      }
    }
    return writer.Release();
  }

  Status DecodeState(const std::vector<uint8_t>& payload) {
    if constexpr (kCheckpointable) {
      BufferReader reader(payload);
      uint64_t n, num_stores;
      if (!reader.ReadVarint(&n) ||
          n != static_cast<uint64_t>(graph_->num_vertices())) {
        return Status::IoError("checkpoint vertex count mismatch");
      }
      std::vector<uint8_t> halted(static_cast<size_t>(n));
      if (!reader.ReadRaw(values_.data(), sizeof(VertexValue) * n) ||
          !reader.ReadRaw(halted.data(), n) ||
          !reader.ReadVarint(&num_stores) ||
          num_stores != stores_.size()) {
        return Status::IoError("corrupt checkpoint state");
      }
      // Restore runs single-threaded before workers start; the freshly
      // Init'd stores are empty, so Append + (BSP) Swap rebuilds the
      // visible state and the pending counts in one pass.
      for (int p = 0; p < partitioning_.num_partitions(); ++p) {
        PartitionStore& ps = *stores_[p];
        const auto& vertices = partitioning_.VerticesOfPartition(p);
        uint64_t num_slots;
        if (!reader.ReadVarint(&num_slots) ||
            num_slots != vertices.size()) {
          return Status::IoError("checkpoint partition layout mismatch");
        }
        for (size_t i = 0; i < vertices.size(); ++i) {
          uint64_t count;
          if (!reader.ReadVarint(&count)) {
            return Status::IoError("truncated checkpoint store");
          }
          for (uint64_t k = 0; k < count; ++k) {
            Message m{};
            if (!MessageCodec<Message>::Decode(reader, &m)) {
              return Status::IoError("truncated checkpoint message");
            }
            ps.store.Append(static_cast<int32_t>(i), m);
          }
        }
        if (options_.model == ComputationModel::kBsp) ps.store.Swap();
        // Rebuild the frontier bitmap from the restored halted bytes
        // (satellite: no per-vertex active recount afterwards — the
        // count IS the popcount).
        ps.active_bits.ClearAll();
        for (size_t i = 0; i < vertices.size(); ++i) {
          if (!halted[vertices[i]]) ps.active_bits.SetSerial(i);
        }
      }
    }
    return Status::OK();
  }

  /// Folds every worker's aggregator contributions into the global
  /// values for the next superstep. Runs in the barrier serial section.
  void ReduceAggregates() {
    for (int slot = 0; slot < kNumAggregatorSlots; ++slot) {
      AggOp op = AggOp::kUnused;
      double merged = 0.0;
      for (auto& worker : workers_) {
        WorkerAggregates& agg = worker->aggregates;
        sy::MutexLock lock(&agg.mu);
        if (agg.op[slot] == AggOp::kUnused) continue;
        if (op == AggOp::kUnused) {
          op = agg.op[slot];
          merged = agg.value[slot];
        } else {
          SG_DCHECK(op == agg.op[slot]);
          MergeAgg(&merged, op, agg.value[slot]);
        }
        agg.op[slot] = AggOp::kUnused;
        agg.value[slot] = 0.0;
      }
      global_aggregates_[slot] = op == AggOp::kUnused
                                     ? global_aggregates_[slot]
                                     : merged;
    }
  }

  /// Per-superstep memory/arena probe. Runs in the barrier serial
  /// section (exactly one thread, nothing executing), so the sampler and
  /// sample vector need no locks; the store Stats() walk still takes the
  /// shard locks because comm threads may be appending remote arrivals.
  void SampleMemorySerial(int superstep) {
    MemSample s;
    s.superstep = superstep;
    const MemoryStatus mem = mem_sampler_.Sample();
    s.rss_kb = mem.rss_kb;
    s.peak_rss_kb = mem.peak_rss_kb;
    MessageStoreArenaStats arena;
    for (auto& ps : stores_) arena.Accumulate(ps->store.Stats());
    s.arena_chunks = arena.chunks;
    s.arena_nodes_in_use = arena.nodes_in_use;
    s.arena_node_capacity = arena.node_capacity;
    s.max_chain_len = arena.max_chain_len;
    mem_samples_.push_back(s);
    mem_peak_gauge_->Observe(mem.peak_rss_kb);
    arena_chunks_gauge_->Observe(arena.chunks);
    arena_nodes_gauge_->Observe(arena.nodes_in_use);
    arena_capacity_gauge_->Observe(arena.node_capacity);
    chain_len_gauge_->Observe(arena.max_chain_len);
    SG_TRACE_COUNTER("mem.rss_kb", mem.rss_kb);
    SG_TRACE_COUNTER("store.arena_nodes_in_use", arena.nodes_in_use);
  }

  /// One JSONL progress line per superstep, flushed immediately so
  /// operators can `tail -f` the file during a live run (the run report
  /// only reaches disk after the run ends). Serial-section only, like
  /// SampleMemorySerial, so the stream needs no lock.
  void WriteLiveReportLine(int superstep, int64_t active) {
    JsonWriter json;
    json.BeginObject();
    json.Key("t_us").Value(Tracer::NowMicros());
    json.Key("superstep").Value(superstep);
    json.Key("active_vertices").Value(active);
    json.Key("attempt").Value(recovery_attempts_);
    json.EndObject();
    live_report_ << json.str() << "\n";
    live_report_.flush();
  }

  void MaybeCheckpoint(int next_superstep) {
    if (options_.checkpoint_every <= 0) return;
    if (next_superstep % options_.checkpoint_every != 0) return;
    SG_TRACE_SPAN("engine.checkpoint");
    CheckpointFrame frame;
    frame.superstep = next_superstep;
    frame.payload = EncodeState();
    const std::string path = options_.checkpoint_dir + "/checkpoint_" +
                             std::to_string(next_superstep) + ".bin";
    // Bounded retry + backoff: a transient write failure (full disk,
    // flaky volume) must not silently cost the run its recovery point.
    const RetryPolicy& retry = options_.fault.checkpoint_retry;
    const int max_attempts = retry.max_attempts < 1 ? 1 : retry.max_attempts;
    Status status = Status::OK();
    for (int failures = 0;; ++failures) {
      status = WriteCheckpoint(path, frame);
      if (status.ok() || failures + 1 >= max_attempts) break;
      checkpoint_retries_->Increment();
      SG_LOG(kWarning) << "checkpoint write failed (attempt "
                       << (failures + 1) << "/" << max_attempts
                       << "), retrying: " << status;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(retry.BackoffMs(failures)));
    }
    if (status.ok()) {
      checkpoint_bytes_->Add(static_cast<int64_t>(frame.payload.size()));
      prev_checkpoint_path_ = last_checkpoint_path_;
      last_checkpoint_path_ = path;
      if (recorder_ != nullptr) SnapshotRecorder(next_superstep);
      return;
    }
    // Degrade, don't die: the run continues and last_checkpoint_path_
    // still names the newest frame that actually reached disk, so a
    // later recovery restores from there instead of a phantom file.
    checkpoint_failures_->Increment();
    AddRecoveryEvent("checkpoint at superstep " +
                     std::to_string(next_superstep) + " failed after " +
                     std::to_string(max_attempts) +
                     " attempts: " + status.message());
    SG_LOG(kError) << "checkpoint failed, keeping "
                   << (last_checkpoint_path_.empty()
                           ? std::string("initial state")
                           : last_checkpoint_path_)
                   << " as the recovery point: " << status;
  }

  /// Snapshots the history recorder to pair with the checkpoint frame at
  /// `superstep` (serial section: all txns closed, nothing in flight).
  /// Keeps the newest few — recovery only ever reaches back one frame
  /// (`.prev` fallback) past the newest.
  void SnapshotRecorder(int superstep) {
    recorder_snapshots_[superstep] = recorder_->TakeSnapshot();
    while (recorder_snapshots_.size() > 4) {
      recorder_snapshots_.erase(recorder_snapshots_.begin());
    }
  }

  /// Picks the best restore frame and rewinds the engine state to it.
  /// Preference order: the newest on-disk checkpoint (with its `.prev`
  /// sibling as fallback), the one before it, then the in-memory frame of
  /// the attempt-0 starting state. Runs single-threaded between attempts,
  /// after the fresh stores are built and before workers start.
  Status RestoreForRecovery() {
    CheckpointFrame frame;
    std::string source;
    bool have = false;
    for (const std::string& path :
         {last_checkpoint_path_, prev_checkpoint_path_}) {
      if (path.empty()) continue;
      std::string read_source;
      StatusOr<CheckpointFrame> read =
          ReadCheckpointWithFallback(path, &read_source);
      if (read.ok()) {
        frame = std::move(*read);
        source = read_source;
        have = true;
        break;
      }
      AddRecoveryEvent("checkpoint " + path +
                       " unusable: " + read.status().message());
    }
    if (!have && have_initial_frame_) {
      frame = initial_frame_;
      source = "in-memory initial frame";
      have = true;
    }
    if (!have) {
      return Status::IoError("recovery: no usable checkpoint frame");
    }
    SERIGRAPH_RETURN_IF_ERROR(DecodeState(frame.payload));
    start_superstep_ = frame.superstep;
    if (recorder_ != nullptr) {
      // Rewind the recorded history to the same cut: the crashed
      // attempt's transactions vanish, exactly as if they never ran.
      auto it = recorder_snapshots_.find(frame.superstep);
      if (it != recorder_snapshots_.end()) {
        recorder_->RestoreSnapshot(it->second);
      } else {
        SG_CHECK_EQ(frame.superstep, initial_frame_.superstep);
        recorder_->RestoreSnapshot(initial_recorder_snapshot_);
      }
    }
    // Aggregator values restart from their defaults, like the rest of the
    // superstep-(start_superstep_) state.
    for (double& agg : global_aggregates_) agg = 0.0;
    AddRecoveryEvent("restored superstep " + std::to_string(frame.superstep) +
                     " from " + source);
    return Status::OK();
  }

  /// Proposition 1 execution scheme (kBspVertexLock): within one logical
  /// superstep, run sub-supersteps separated by global barriers. In each
  /// sub-superstep a worker executes exactly those still-pending vertices
  /// that hold all their forks; fork requests and transfers are exchanged
  /// only between the barriers, and each sub-barrier flushes + swaps so
  /// that sub-superstep k+1 sees the messages written in k (fresh reads,
  /// condition C1, under a synchronous model). Every eligible vertex
  /// executes exactly once per logical superstep.
  void RunSuperstepConstrainedBsp(WorkerState& worker, const Program& program,
                                  int superstep) {
    // Single compute thread here (the technique requires it), so the
    // whole sub-superstep loop — including its internal barriers and
    // flushes — counts as compute, exactly like compute_us does.
    SY_PERF_SCOPE(&worker.ss_perf, PerfPhase::kCompute);
    // Pending = this worker's eligible vertices, fixed at superstep start.
    std::vector<VertexId> pending;
    for (PartitionId p : partitioning_.PartitionsOfWorker(worker.id)) {
      PartitionStore& ps = *stores_[p];
      for (VertexId v : partitioning_.VerticesOfPartition(p)) {
        if (VertexEligible(ps, v)) pending.push_back(v);
      }
    }
    // One staging buffer and one fold for the whole logical superstep:
    // each sub-barrier drains the staging first (sub-superstep freshness
    // needs every send on the shared out-buffer, or in its store, before
    // the flush), and aggregates are only read at the outer barrier.
    PartitionRun run;
    if constexpr (kStaged) run.staging = AcquireStaging(worker);
    int idle_rounds = 0;
    for (;;) {
      if (fault_active_ && AttemptAborted(worker)) break;
      int64_t executed = 0;
      std::vector<VertexId> still_pending;
      for (VertexId v : pending) {
        if (technique_->VertexReady(worker.id, v)) {
          PartitionStore& ps = *stores_[partitioning_.PartitionOf(v)];
          ExecuteVertexIfEligible(worker, ps, program, v, superstep, run);
          technique_->OnVertexExecuted(worker.id, v);
          ++executed;
        } else {
          technique_->RequestVertexForks(worker.id, v);
          still_pending.push_back(v);
        }
      }
      pending.swap(still_pending);
      sub_supersteps_->Increment();

      // Sub-superstep barrier: deliver this round's messages (C1 needs
      // them visible to later rounds) and agree on global progress.
      if (run.staging != nullptr) DrainStaging(worker, *run.staging);
      FlushAndAwaitAcks(worker, superstep);
      AwaitBarrier(worker);
      {
        int64_t count = static_cast<int64_t>(pending.size());
        // Publish this sub-superstep's messages, then apply queued fork
        // traffic — the only moment forks may move (Proposition 1 (ii)).
        SubSwapIncoming(worker);
        technique_->OnSubBarrier(worker.id);
        active_counts_[worker.id] = count;
      }
      const bool serial = AwaitBarrier(worker);
      if (serial) {
        int64_t total = 0;
        for (int64_t count : active_counts_) total += count;
        sub_stop_ = total == 0;
        if (Introspector::enabled() &&
            Introspector::Get().abort_requested()) {
          aborted_ = true;
          sub_stop_ = true;
        }
        sub_executed_any_ = false;  // reset; workers OR into it below
      }
      AwaitBarrier(worker);
      // Publish whether anyone executed this round (progress detector).
      if (executed > 0) sub_executed_any_ = true;
      AwaitBarrier(worker);
      // A broken barrier (failure detected) means the serial section may
      // never have run: leave via the abort flag, not via sub_stop_.
      if (fault_active_ && AttemptAborted(worker)) break;
      if (sub_stop_) break;
      if (!sub_executed_any_) {
        // No vertex anywhere was ready: fork traffic is still in flight
        // (it has simulated latency). Back off briefly; the protocol
        // guarantees progress once the messages land.
        if (++idle_rounds > 100000) {
          SG_LOG(kFatal) << "constrained BSP locking stalled";
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      } else {
        idle_rounds = 0;
      }
    }
    if (run.staging != nullptr) {
      DrainStaging(worker, *run.staging);
      ReleaseStaging(worker, run.staging);
    }
    FoldRun(worker, run);
  }

  /// Publishes BSP arrivals for this worker's partitions (the
  /// sub-superstep variant of the swap in SwapAndCountActive).
  void SubSwapIncoming(WorkerState& worker) {
    for (PartitionId p : partitioning_.PartitionsOfWorker(worker.id)) {
      SwapStore(*stores_[p]);
    }
  }

  // --- worker main loop ------------------------------------------------

  /// Accumulates fork-acquire wait time (request -> all forks held) into
  /// the worker's superstep accumulator and the run-wide histogram.
  void RecordForkWait(WorkerState& worker, int64_t wait_us) {
    // mo: per-superstep stat
    worker.ss_fork_wait_us.fetch_add(wait_us, std::memory_order_relaxed);
    fork_wait_hist_->Record(wait_us);
  }

  /// Barrier await with the supervisor told this is a legitimate block
  /// (exempt from the runnable-worker timeout). Returns false immediately
  /// on a broken barrier (failure detected mid-attempt).
  bool AwaitBarrier(WorkerState& worker) {
    ScopedBlocked blocked(supervisor_.get(), worker.id);
    return barrier_->Await();
  }

  /// Barrier await, timed into `*wait_us_acc` and traced.
  bool TimedAwait(WorkerState& worker, int64_t* wait_us_acc) {
    SG_TRACE_SPAN("engine.barrier_wait");
    SY_PERF_SCOPE(&worker.ss_perf, PerfPhase::kBarrier);
    const int64_t t0 = Tracer::NowMicros();
    const bool serial = AwaitBarrier(worker);
    *wait_us_acc += Tracer::NowMicros() - t0;
    return serial;
  }

  void WorkerLoop(WorkerState& worker, const Program& program) {
    // Under serichk this parks until all engine threads registered, then
    // runs only when the virtual scheduler grants this thread the
    // processor. No-op in production.
    sy::ScheduledThread sched_reg("worker", worker.id);
    if (Tracer::enabled()) {
      Tracer::Get().SetCurrentThreadName("worker-" +
                                         std::to_string(worker.id));
    }
    for (int superstep = start_superstep_;; ++superstep) {
      SG_TRACE_SPAN("engine.superstep");
      SuperstepSample sample;
      sample.superstep = superstep;
      sample.worker = worker.id;
      // Mode flags were last written in the previous barrier's serial
      // section (or before workers started); B3 ordered them.
      sample.pull_mode = static_cast<uint8_t>((capture_bcast_ ? 1 : 0) |
                                              (gather_bcast_ ? 2 : 0));
      if (options_.superstep_overhead_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(options_.superstep_overhead_us));
      }
      if (probes_active_) {
        if (supervisor_ != nullptr) supervisor_->Beat(worker.id);
        // A fired crash/hang returns true: this worker "dies" here. The
        // crash handler has already told the supervisor, which breaks the
        // barrier so the surviving workers unwind too.
        if (SG_FAULT_POINT("engine.superstep_start", worker.id)) break;
        if (AttemptAborted(worker)) break;
      }
      technique_->OnSuperstepStart(worker.id, superstep);
      if (Introspector::enabled()) {
        Introspector::Get().SetPhase(worker.id, WorkerPhase::kCompute,
                                     superstep);
      }
      {
        SG_TRACE_SPAN("engine.compute");
        const int64_t t0 = Tracer::NowMicros();
        if (granularity_ == SyncTechnique::Granularity::kBspVertexLock) {
          // Sub-superstep barriers and flushes stay inside compute_us
          // here: Proposition 1 trades compute overlap for barrier cost,
          // which is exactly what this bucket then shows.
          RunSuperstepConstrainedBsp(worker, program, superstep);
        } else {
          RunPartitions(worker, program, superstep);
        }
        sample.compute_us = Tracer::NowMicros() - t0;
      }
      if (probes_active_) {
        if (supervisor_ != nullptr) supervisor_->Beat(worker.id);
        if (SG_FAULT_POINT("engine.post_compute", worker.id)) break;
        if (AttemptAborted(worker)) break;
      }
      {
        SG_TRACE_SPAN("engine.flush_acks");
        SY_PERF_SCOPE(&worker.ss_perf, PerfPhase::kFlushWait);
        const int64_t t0 = Tracer::NowMicros();
        if (Introspector::enabled()) {
          Introspector::Get().SetPhase(worker.id, WorkerPhase::kFlushWait,
                                       superstep);
        }
        FlushAndAwaitAcks(worker, superstep);
        technique_->OnSuperstepEnd(worker.id, superstep);
        sample.flush_wait_us = Tracer::NowMicros() - t0;
      }
      if (probes_active_) {
        if (SG_FAULT_POINT("engine.pre_barrier", worker.id)) break;
        if (AttemptAborted(worker)) break;
      }

      if (Introspector::enabled()) {
        Introspector::Get().SetPhase(worker.id, WorkerPhase::kBarrierWait,
                                     superstep);
      }
      int64_t barrier_us = 0;
      TimedAwait(worker, &barrier_us);  // B1: superstep-s messages delivered
      SwapAndCountActive(worker);
      const bool serial =
          TimedAwait(worker, &barrier_us);  // B2: counts published
      if (serial) {
        ReduceAggregates();
        // Arena/RSS gauges stay warm for perf runs and whenever a live
        // /metrics endpoint is scraping (TelemetryHub::serving()).
        if (perf_active_ || TelemetryHub::serving()) {
          SampleMemorySerial(superstep);
        }
        int64_t total = 0;
        for (int64_t count : active_counts_) total += count;
        int64_t edges = 0;
        for (int64_t count : frontier_edges_) edges += count;
        if (capture_bcast_) {
          // Captured broadcasts never reached the stores, so receivers
          // have no pending bits yet; count the broadcasters so the run
          // cannot declare convergence with undelivered pulls. (The
          // count is approximate — broadcasters stand in for their
          // receivers, as their out-edges do in AdvancePullEpoch — but
          // only zero/nonzero drives termination.)
          total += static_cast<int64_t>(bcast_bits_[bcast_cur_].Popcount());
        }
        supersteps_done_ = superstep + 1;
        converged_ = total == 0;
        {
          TelemetryHub::RunStatus& live = TelemetryHub::Get().run();
          // mo: live telemetry; approximate by design
          live.superstep.store(superstep + 1, std::memory_order_relaxed);
          // mo: active count; barrier orders decisions
          live.active_vertices.store(total, std::memory_order_relaxed);
        }
        if (live_report_.is_open()) WriteLiveReportLine(superstep, total);
        bool stop = converged_ || superstep + 1 >= options_.max_supersteps;
        if (Introspector::enabled() &&
            Introspector::Get().abort_requested()) {
          aborted_ = true;
          converged_ = false;
          stop = true;
        }
        // A crash here models a worker dying inside the serial section,
        // with the checkpoint never attempted; B3 below is already broken
        // by the failure callback, so everyone unwinds.
        if (!stop &&
            !SG_FAULT_POINT("engine.pre_checkpoint", worker.id)) {
          MaybeCheckpoint(superstep + 1);
        }
        AdvancePullEpoch(superstep, total, edges, stop);
        stop_.store(stop, std::memory_order_release);
      }
      TimedAwait(worker, &barrier_us);  // B3: decision visible
      if (fault_active_ && AttemptAborted(worker)) break;
      if (Introspector::enabled()) {
        // Superstep completion is global progress even if no vertex ran.
        Introspector::Get().OnProgress(worker.id);
      }
      sample.barrier_wait_us = barrier_us;
      barrier_wait_hist_->Record(barrier_us);
      sample.fork_wait_us =  // mo: per-superstep stat
          worker.ss_fork_wait_us.exchange(0, std::memory_order_relaxed);
      sample.vertices_executed =  // mo: per-superstep stat
          worker.ss_executions.exchange(0, std::memory_order_relaxed);
      sample.messages_sent =  // mo: per-superstep stat
          worker.ss_messages.exchange(0, std::memory_order_relaxed);
      // Written in this barrier's serial section, ordered by B3; every
      // worker's row carries the same global value.
      sample.frontier_density_milli = last_density_milli_;
      sample.frontier_edge_share_milli = last_edge_share_milli_;
      if (perf_active_) {
        // Drain this worker's per-phase counter deltas: compute lands in
        // the timeline row (and on the worker's trace counter track),
        // every phase folds into the run totals.
        const PerfDelta compute = worker.ss_perf.Exchange(PerfPhase::kCompute);
        sample.compute_cycles = compute.v[kPerfCycles];
        sample.compute_instructions = compute.v[kPerfInstructions];
        sample.compute_llc_loads = compute.v[kPerfLlcLoads];
        sample.compute_llc_misses = compute.v[kPerfLlcMisses];
        sample.compute_task_clock_ns = compute.v[kPerfTaskClockNs];
        sample.perf_hw_valid = compute.hw_valid;
        perf_totals_.Add(PerfPhase::kCompute, compute);
        perf_totals_.Add(PerfPhase::kFlushWait,
                         worker.ss_perf.Exchange(PerfPhase::kFlushWait));
        perf_totals_.Add(PerfPhase::kBarrier,
                         worker.ss_perf.Exchange(PerfPhase::kBarrier));
        perf_totals_.Add(PerfPhase::kForkWait,
                         worker.ss_perf.Exchange(PerfPhase::kForkWait));
        if (compute.hw_valid) {
          SG_TRACE_COUNTER("perf.ipc_milli", compute.ipc_milli());
          SG_TRACE_COUNTER("perf.llc_misses", compute.v[kPerfLlcMisses]);
        }
      }
      timeline_->Append(sample);
      if (stop_.load(std::memory_order_acquire)) break;
    }
  }

  const Graph* graph_;
  EngineOptions options_;
  Partitioning partitioning_;
  bool has_partitioning_ = false;
  bool ran_ = false;
  /// Sender-side combining of staged records is active (combiner present
  /// and no history recorder — a combined record folds several sends, so
  /// it has no single provenance). Fixed before workers start.
  bool sender_combining_ = false;
  /// Same-worker staged sends go through per-destination-partition bins
  /// (GPOP-style scatter) instead of eager appends: BSP only. Fixed
  /// before workers start.
  bool bsp_local_bins_ = false;

  // --- push/pull switch state (docs/PERF.md) --------------------------
  /// Structural + runtime gate for the per-superstep switch: kPullCapable
  /// program, BSP, no sync technique, no recorder, and not forced to
  /// push. Fixed before workers start; DecidePull makes the per-superstep
  /// choice.
  bool pull_enabled_ = false;
  /// Current superstep parks broadcasts in bcast_vals_[bcast_cur_]
  /// instead of materializing them ("pull mode"). Flipped only in the
  /// barrier serial section; workers read it data-race-free because the
  /// barrier orders the write against every read.
  bool capture_bcast_ = false;
  /// Current superstep must fold the PREVIOUS superstep's captures over
  /// the in-edge CSR (true iff the previous superstep captured —
  /// independent of what the current one does, so a switch-back still
  /// drains the buffer).
  bool gather_bcast_ = false;
  /// The gather folds every in-neighbor's slot instead of testing which
  /// broadcast: set when the captures it gathers cover at least half the
  /// graph's in-edges. Written with gather_bcast_.
  bool gather_every_slot_ = false;
  /// Out-edges of this superstep's captured broadcasters, folded in once
  /// per partition run (FoldRun) and drained by AdvancePullEpoch.
  std::atomic<int64_t> captured_edges_{0};
  /// Double buffer: [bcast_cur_] is this superstep's capture side,
  /// [1 - bcast_cur_] is the gather side holding last superstep's
  /// broadcasts. Flipped in the serial section after a capture.
  int bcast_cur_ = 0;
  std::vector<Message> bcast_vals_[2];
  Bitmap bcast_bits_[2];
  /// Global frontier density (eligible vertices per 1000) recorded each
  /// barrier, for the gauge and the timeline column.
  int64_t last_density_milli_ = 0;
  /// Out-edge share (per 1000 of |E|) of the next superstep's potential
  /// broadcasters, recorded each barrier while the switch is live; drives
  /// the next superstep's mode (DecidePull) and the timeline column.
  int64_t last_edge_share_milli_ = 0;

  /// Null unless the technique passes tokens (set once in Run()).
  std::unique_ptr<BoundaryInfo> boundaries_;
  std::unique_ptr<SyncTechnique> technique_;
  SyncTechnique::Granularity granularity_ = SyncTechnique::Granularity::kNone;
  MetricRegistry metrics_;
  std::unique_ptr<Transport> transport_;
  std::shared_ptr<HistoryRecorder> recorder_;

  std::vector<VertexValue> values_;
  std::vector<int32_t> local_index_;
  std::vector<std::unique_ptr<PartitionStore>> stores_;
  std::vector<std::unique_ptr<WorkerState>> workers_;

  std::unique_ptr<CyclicBarrier> barrier_;
  std::vector<int64_t> active_counts_;
  /// Per-worker frontier out-edges (SwapAndCountActive), pull runs only.
  std::vector<int64_t> frontier_edges_;
  double global_aggregates_[kNumAggregatorSlots] = {};
  std::atomic<bool> stop_{false};
  bool sub_stop_ = false;
  std::atomic<bool> sub_executed_any_{false};
  int supersteps_done_ = 0;
  int start_superstep_ = 0;
  bool converged_ = false;
  /// Set (only inside barrier serial sections) when the watchdog's abort
  /// request was honored; Run() then returns Status::Aborted.
  bool aborted_ = false;
  std::unique_ptr<Watchdog> watchdog_;
  std::string last_checkpoint_path_;

  // --- fault tolerance (docs/FAULT_TOLERANCE.md) ----------------------

  /// Records a human-readable recovery event (surfaced in RunStats).
  void AddRecoveryEvent(const std::string& event) {
    sy::MutexLock lock(&recovery_mu_);
    recovery_events_.push_back(event);
  }

  /// Injected-crash handler, invoked by the FaultInjector on the dying
  /// worker's own thread with no injector lock held. Marks the worker
  /// dead and routes detection through the supervisor (immediate).
  void OnWorkerCrash(int worker, const char* point) {
    if (worker >= 0 && worker < static_cast<int>(worker_dead_.size())) {
      // mo: death flag; read is advisory
      worker_dead_[worker].store(1, std::memory_order_relaxed);
    }
    if (supervisor_ != nullptr) {
      supervisor_->ReportDeath(worker, std::string("worker ") +
                                           std::to_string(worker) +
                                           " crashed at " + point);
    }
  }

  /// First-failure callback from the supervisor (monitor thread, or the
  /// dying worker's thread via ReportDeath). Poisons the attempt and
  /// unblocks every wait a worker could be parked in: barrier (Break),
  /// fork acquisition (introspector abort), injected hangs
  /// (ReleaseHangs), ack waits (sliced, poll the flag).
  void OnWorkerFailure(const FailureReport& report) {
    {
      sy::MutexLock lock(&recovery_mu_);
      failure_reason_ = report.reason;
      recovery_events_.push_back("failure detected: " + report.reason);
    }
    worker_failures_->Increment();
    attempt_failed_.store(true, std::memory_order_release);
    if (Introspector::enabled()) {
      Introspector::Get().RequestAbort(report.reason);
    }
    if (FaultInjector::armed()) FaultInjector::Get().ReleaseHangs();
    barrier_->Break();
  }

  /// True when this run needs failure detection (plan armed or recovery
  /// on). Plain bool fixed before workers start; guards the per-superstep
  /// abort polls so fault-free runs stay branch-predictable.
  bool fault_active_ = false;
  /// Superset of fault_active_: also true under a serichk scheduler, so
  /// the SG_FAULT_POINT probes in WorkerLoop fire as schedule points
  /// without arming the fault machinery (no supervisor, no introspector).
  bool probes_active_ = false;
  /// Poisons the current attempt; set by OnWorkerFailure.
  std::atomic<bool> attempt_failed_{false};
  /// Per-worker death marks (injected crashes), reset every attempt.
  std::vector<std::atomic<uint8_t>> worker_dead_;
  std::unique_ptr<Supervisor> supervisor_;
  /// Guards the recovery bookkeeping written from failure callbacks and
  /// read by the driver between attempts. Leaf (docs/LOCK_ORDER.md).
  mutable sy::Mutex recovery_mu_;
  std::string failure_reason_ SY_GUARDED_BY(recovery_mu_);
  std::vector<std::string> recovery_events_ SY_GUARDED_BY(recovery_mu_);
  /// Completed restore-and-resume cycles (driver thread only).
  int recovery_attempts_ = 0;
  /// In-memory frame of the attempt-0 starting state: the restore target
  /// of last resort when no checkpoint ever reached disk.
  CheckpointFrame initial_frame_;
  bool have_initial_frame_ = false;
  /// The checkpoint before last_checkpoint_path_ (fallback frame).
  std::string prev_checkpoint_path_;
  /// History-recorder snapshots keyed by checkpoint superstep, so a
  /// restore also rewinds the recorded history to the same cut.
  std::map<int, HistoryRecorder::Snapshot> recorder_snapshots_;
  /// Snapshot paired with initial_frame_ (never pruned).
  HistoryRecorder::Snapshot initial_recorder_snapshot_;

  Counter* checkpoint_failures_ = nullptr;
  Counter* checkpoint_retries_ = nullptr;
  Counter* recovery_attempts_counter_ = nullptr;
  Counter* worker_failures_ = nullptr;

  Counter* messages_sent_ = nullptr;
  Counter* local_sends_ = nullptr;
  Counter* executions_ = nullptr;
  Counter* flushes_ = nullptr;
  Counter* skipped_partitions_ = nullptr;
  Counter* sub_supersteps_ = nullptr;
  MaxGauge* concurrency_ = nullptr;
  Counter* pull_supersteps_ = nullptr;
  MaxGauge* frontier_density_gauge_ = nullptr;
  Counter* bin_flushes_ = nullptr;
  Histogram* barrier_wait_hist_ = nullptr;
  Histogram* fork_wait_hist_ = nullptr;
  Histogram* store_append_hist_ = nullptr;
  Histogram* store_swap_hist_ = nullptr;
  std::unique_ptr<TimelineRecorder> timeline_;

  // Perf/memory observability (docs/PROFILING.md), active only when
  // options_.perf_counters. perf_totals_ is thread-safe (workers fold
  // their drained per-superstep deltas in); the sampler and sample
  // vector are touched only in barrier serial sections and after the
  // workers have joined.
  bool perf_active_ = false;
  PerfPhaseAccum perf_totals_;
  MemorySampler mem_sampler_;
  std::vector<MemSample> mem_samples_;
  /// Live per-superstep JSONL stream (EngineOptions::live_report_path);
  /// opened in Run() before workers start, written only from the B2
  /// serial section.
  std::ofstream live_report_;
  Counter* checkpoint_bytes_ = nullptr;
  MaxGauge* mem_peak_gauge_ = nullptr;
  MaxGauge* arena_chunks_gauge_ = nullptr;
  MaxGauge* arena_nodes_gauge_ = nullptr;
  MaxGauge* arena_capacity_gauge_ = nullptr;
  MaxGauge* chain_len_gauge_ = nullptr;
};

template <typename Program>
StatusOr<typename Engine<Program>::Result> Engine<Program>::Run(
    const Program& program) {
  SG_CHECK(!ran_);
  ran_ = true;
  SERIGRAPH_RETURN_IF_ERROR(Validate());
  EnsurePartitioning();

  const VertexId n = graph_->num_vertices();
  const int num_workers = options_.num_workers;
  fault_active_ = options_.fault.Active();
  probes_active_ = fault_active_ || sy::SchedulerArmed();

  // --- run-wide setup, shared by every attempt (excluded from
  // --- computation time) ----------------------------------------------
  // Token passing is the only reader of the boundary classes (an
  // O(|E|) scan), so other techniques skip building them.
  if (options_.sync_mode == SyncMode::kSingleLayerToken ||
      options_.sync_mode == SyncMode::kDualLayerToken) {
    boundaries_ = std::make_unique<BoundaryInfo>(*graph_, partitioning_);
  }

  messages_sent_ = metrics_.GetCounter("pregel.messages_sent");
  local_sends_ = metrics_.GetCounter("pregel.local_sends");
  executions_ = metrics_.GetCounter("pregel.vertex_executions");
  flushes_ = metrics_.GetCounter("pregel.flushes");
  skipped_partitions_ = metrics_.GetCounter("pregel.skipped_partitions");
  sub_supersteps_ = metrics_.GetCounter("pregel.sub_supersteps");
  concurrency_ = metrics_.GetGauge("pregel.max_concurrent_executions");
  pull_supersteps_ = metrics_.GetCounter("engine.pull_supersteps");
  frontier_density_gauge_ = metrics_.GetGauge("engine.frontier_density_milli");
  bin_flushes_ = metrics_.GetCounter("store.bin_flushes");
  // Latency histograms (Section 7.3's time breakdown). All three are
  // registered up front so every run's metrics snapshot carries the
  // name.p50/.p95/... keys, even when a technique never records into one.
  barrier_wait_hist_ = metrics_.GetHistogram("engine.barrier_wait_us");
  fork_wait_hist_ = metrics_.GetHistogram("sync.fork_wait_us");
  store_append_hist_ = metrics_.GetHistogram("store.append_ns");
  store_swap_hist_ = metrics_.GetHistogram("store.swap_us");
  metrics_.GetHistogram("sync.token_hold_us");
  checkpoint_failures_ = metrics_.GetCounter("checkpoint.failures");
  checkpoint_retries_ = metrics_.GetCounter("checkpoint.retries");
  checkpoint_bytes_ = metrics_.GetCounter("checkpoint.bytes");
  recovery_attempts_counter_ = metrics_.GetCounter("recovery.attempts");
  worker_failures_ = metrics_.GetCounter("recovery.worker_failures");
  // Perf/memory metrics are registered up front like everything else so
  // every snapshot carries the keys; they stay 0 unless perf_counters.
  mem_peak_gauge_ = metrics_.GetGauge("mem.peak_rss_kb");
  arena_chunks_gauge_ = metrics_.GetGauge("store.arena_chunks");
  arena_nodes_gauge_ = metrics_.GetGauge("store.arena_nodes_in_use");
  arena_capacity_gauge_ = metrics_.GetGauge("store.arena_node_capacity");
  chain_len_gauge_ = metrics_.GetGauge("store.max_chain_len");
  timeline_ = std::make_unique<TimelineRecorder>(num_workers);

  if (options_.record_history) {
    recorder_ = std::make_shared<HistoryRecorder>(graph_, num_workers);
  }
  // Staging and BSP partition bins run with or without a recorder: a
  // staged or binned record carries its own (in-edge, version). Sender
  // combining and the pull switch stay off under a recorder, because a
  // folded or pulled message stands for several sends and so has no
  // single (in-edge, version) to record.
  sender_combining_ = kHasCombiner && recorder_ == nullptr;
  bsp_local_bins_ = options_.model == ComputationModel::kBsp;
  // Push/pull switch (docs/PERF.md): BSP only (a captured broadcast is
  // invisible until the next superstep, which is exactly BSP's contract
  // and exactly what AP must NOT do — Section 4.1 freshness), plain runs
  // only (sync techniques keep their fork-handover read protocol; a
  // pulled broadcast has no per-message provenance for the recorder).
  // Checkpoint cuts push (DecidePull), so frames and recovery need no
  // broadcast state.
  pull_enabled_ = kPullCapable &&
                  options_.model == ComputationModel::kBsp &&
                  options_.sync_mode == SyncMode::kNone &&
                  recorder_ == nullptr &&
                  options_.push_pull != PushPullMode::kForcePush;
  if constexpr (kPullCapable) {
    if (pull_enabled_) {
      for (int side = 0; side < 2; ++side) {
        bcast_vals_[side].assign(static_cast<size_t>(n),
                                 Program::kCombineIdentity);
        bcast_bits_[side].Reset(static_cast<size_t>(n));
      }
    }
  }

  local_index_.assign(n, -1);
  for (int p = 0; p < partitioning_.num_partitions(); ++p) {
    const auto& vertices = partitioning_.VerticesOfPartition(p);
    for (size_t i = 0; i < vertices.size(); ++i) {
      local_index_[vertices[i]] = static_cast<int32_t>(i);
    }
  }

  // Arm the injector before the first Transport exists: its constructor
  // checks armed() to take the full Send/Receive path (wire faults and
  // sequence stamping bypass the single-worker fast path). Match
  // counters persist across recovery attempts, so each one-shot event
  // fires once per run, not once per attempt.
  struct InjectorGuard {
    bool armed = false;
    ~InjectorGuard() {
      if (armed) FaultInjector::Get().Disarm();
    }
  } injector_guard;
  // Perf collection spans the whole run (all attempts); the guard turns
  // it off on every exit path so per-thread groups from this run never
  // outlive it (the epoch bump invalidates thread-local caches).
  struct PerfGuard {
    bool active = false;
    ~PerfGuard() {
      if (active) PerfCounters::Disable();
    }
  } perf_guard;
  perf_active_ = options_.perf_counters;
  if (perf_active_) {
    PerfCounters::Enable(PerfCounterConfig{});
    perf_guard.active = true;
    if (!PerfCounters::hw_available()) {
      SG_LOG(kWarning) << "hardware perf counters unavailable: "
                       << PerfCounters::fallback_reason();
    }
  }
  // Publish this run's registry + coarse run state to the live telemetry
  // plane (obs/flightrec.h): a live /metrics scrape reads the registry
  // while the run is up, and unregistering freezes the final snapshot
  // for post-run scrapes. The guard unpublishes on every exit path.
  struct TelemetryGuard {
    MetricRegistry* registry = nullptr;
    ~TelemetryGuard() {
      if (registry == nullptr) return;
      TelemetryHub::Get().run().running.store(false,
                                              // mo: live telemetry; approximate by design
                                              std::memory_order_relaxed);
      TelemetryHub::Get().UnregisterMetrics(registry);
      TelemetryHub::Get().ClearFaultLogProvider();
      HealthState::Get().SetReady(false);
    }
  } telemetry_guard;
  TelemetryHub::Get().RegisterMetrics(&metrics_);
  telemetry_guard.registry = &metrics_;
  {
    TelemetryHub::RunStatus& live = TelemetryHub::Get().run();
    // mo: live telemetry; approximate by design
    live.running.store(true, std::memory_order_relaxed);
    // mo: live telemetry; approximate by design
    live.superstep.store(-1, std::memory_order_relaxed);
    // mo: live telemetry; approximate by design
    live.workers.store(num_workers, std::memory_order_relaxed);
    live.active_vertices.store(static_cast<int64_t>(n),
                               // mo: live telemetry; approximate by design
                               std::memory_order_relaxed);
    // mo: live telemetry; approximate by design
    live.recovery_attempts.store(0, std::memory_order_relaxed);
  }
  HealthState::Get().SetReady(true);
  Tracer::RecordInstant("engine.run_start");
  if (!options_.live_report_path.empty() && !live_report_.is_open()) {
    live_report_.open(options_.live_report_path,
                      std::ios::out | std::ios::trunc);
    if (!live_report_.is_open()) {
      SG_LOG(kWarning) << "cannot open live report "
                       << options_.live_report_path
                       << "; live streaming disabled";
    }
  }
  if (!options_.fault.plan.empty()) {
    FaultInjector& injector = FaultInjector::Get();
    injector.Arm(options_.fault.plan);
    injector.SetCrashHandler(
        [this](int w, const char* point) { OnWorkerCrash(w, point); });
    injector_guard.armed = true;
    // Incident bundles list the fired fault events; the obs layer cannot
    // link the fault layer, so the engine bridges via a provider.
    TelemetryHub::Get().SetFaultLogProvider(
        [] { return FaultInjector::Get().fired_log(); });
  }

  // The introspector doubles as the abort channel that unblocks fork
  // acquisition waits, so fault-tolerant runs force it on even without
  // options_.introspect (the watchdog stays opt-in).
  const bool use_introspector = options_.introspect || fault_active_;
  double total_seconds = 0.0;
  std::string abort_reason;

  // --- attempt loop: run to completion, and on a detected worker
  // --- failure restore from the last good frame and resume
  // --- (docs/FAULT_TOLERANCE.md) --------------------------------------
  for (;;) {
    attempt_failed_.store(false, std::memory_order_release);
    worker_dead_ = std::vector<std::atomic<uint8_t>>(num_workers);
    stop_.store(false, std::memory_order_release);
    sub_stop_ = false;
    // mo: reset pre-spawn; thread start orders it
    sub_executed_any_.store(false, std::memory_order_relaxed);
    // mo: reset pre-spawn; thread start orders it
    captured_edges_.store(0, std::memory_order_relaxed);
    converged_ = false;
    aborted_ = false;

    // Per-attempt construction: the failed attempt's technique state
    // (fork placements, token positions), in-flight messages, and worker
    // threads are discarded wholesale; Init() recreates the canonical
    // acyclic fork placement and the deterministic token schedules.
    technique_ = MakeSyncTechnique(options_.sync_mode);
    granularity_ = technique_->granularity();
    if (technique_->RequiresSingleComputeThread()) {
      options_.compute_threads_per_worker = 1;
    }
    SyncTechnique::Context tech_ctx;
    tech_ctx.graph = graph_;
    tech_ctx.partitioning = &partitioning_;
    tech_ctx.boundaries = boundaries_.get();
    tech_ctx.metrics = &metrics_;
    if (fault_active_) {
      // A dropped control message can leave the fork protocol in a state
      // its invariants reject (e.g. a request for a fork whose transfer
      // vanished) *before* the link-sequence gap surfaces. Route such
      // violations to the supervisor as an immediate recoverable failure
      // instead of letting the technique's fatal checks kill the process.
      tech_ctx.on_protocol_violation = [this](WorkerId w,
                                              const std::string& what) {
        if (supervisor_ != nullptr) {
          supervisor_->ReportProtocolViolation(w, what);
        }
      };
    }
    SERIGRAPH_RETURN_IF_ERROR(technique_->Init(tech_ctx));

    transport_ = std::make_unique<Transport>(num_workers, options_.network,
                                             &metrics_);
    if (fault_active_) {
      // Loss reports (link sequence gaps) route to the supervisor; set
      // before any comm thread runs. The supervisor ignores reports
      // after Stop(), so gaps noticed while draining a clean teardown
      // cannot fail a finished attempt.
      transport_->SetLossCallback([this](WorkerId src, WorkerId dst,
                                         uint64_t expected, uint64_t got) {
        if (supervisor_ != nullptr) {
          supervisor_->ReportLoss(src, dst, expected, got);
        }
      });
    }

    values_.resize(n);
    for (VertexId v = 0; v < n; ++v) {
      values_[v] = program.InitialValue(v, *graph_);
    }
    stores_.clear();
    for (int p = 0; p < partitioning_.num_partitions(); ++p) {
      const auto& vertices = partitioning_.VerticesOfPartition(p);
      auto ps = std::make_unique<PartitionStore>();
      typename MessageStore<Message>::CombineFn combine = nullptr;
      if constexpr (kHasCombiner) {
        combine = [](const Message& a, const Message& b) {
          return Program::Combine(a, b);
        };
      }
      ps->store.Init(static_cast<int32_t>(vertices.size()),
                     options_.model == ComputationModel::kBsp, combine);
      // Every vertex starts active (Pregel semantics).
      ps->active_bits.Reset(vertices.size());
      ps->active_bits.SetAll();
      stores_.push_back(std::move(ps));
    }

    if (recovery_attempts_ == 0) {
      if (!options_.restore_path.empty()) {
        std::string source;
        auto frame =
            ReadCheckpointWithFallback(options_.restore_path, &source);
        SERIGRAPH_RETURN_IF_ERROR(frame.status());
        SERIGRAPH_RETURN_IF_ERROR(DecodeState(frame->payload));
        start_superstep_ = frame->superstep;
      }
      if (fault_active_ && options_.fault.recover) {
        // Last-resort restore target: the exact state computation starts
        // from, kept in memory for the case where no checkpoint ever
        // reaches disk before the first failure.
        initial_frame_.superstep = start_superstep_;
        initial_frame_.payload = EncodeState();
        have_initial_frame_ = true;
        if (recorder_ != nullptr) {
          initial_recorder_snapshot_ = recorder_->TakeSnapshot();
        }
      }
    } else {
      SERIGRAPH_RETURN_IF_ERROR(RestoreForRecovery());
    }

    // First-superstep push/pull decision, from the post-restore frontier
    // (every later decision happens in the barrier serial section). The
    // capture side is cleared whatever the decision: a failed attempt may
    // have left captures there, and a later switch to pull does not clear
    // it.
    capture_bcast_ = false;
    gather_bcast_ = false;
    if (pull_enabled_) {
      int64_t eligible = 0;
      int64_t edges = 0;
      for (int p = 0; p < partitioning_.num_partitions(); ++p) {
        const PartitionStore& ps = *stores_[p];
        eligible += static_cast<int64_t>(
            ps.active_bits.PopcountUnion(ps.store.pending_bits()));
        edges += FrontierOutEdges(p);
      }
      RecordFrontier(eligible, edges);
      ClearCaptureSide();
      capture_bcast_ = DecidePull(start_superstep_, last_edge_share_milli_);
      if (capture_bcast_) pull_supersteps_->Increment();
      SG_LOG(kDebug) << "push/pull: superstep " << start_superstep_
                     << " mode=" << (capture_bcast_ ? "pull" : "push")
                     << " (edge share " << last_edge_share_milli_
                     << "/1000, density " << last_density_milli_
                     << "/1000)";
    }

    barrier_ = std::make_unique<CyclicBarrier>(num_workers);
    active_counts_.assign(num_workers, 0);
    frontier_edges_.assign(num_workers, 0);

    workers_.clear();
    for (WorkerId w = 0; w < num_workers; ++w) {
      auto worker = std::make_unique<WorkerState>();
      worker->engine = this;
      worker->id = w;
      worker->touched = std::vector<std::atomic<uint8_t>>(num_workers);
      worker->batch_buckets.resize(partitioning_.num_partitions());
      if (recorder_ != nullptr) {
        worker->batch_provenance.resize(partitioning_.num_partitions());
      }
      for (int d = 0; d < num_workers; ++d) {
        worker->out.push_back(std::make_unique<OutBuffer>());
      }
      if (options_.compute_threads_per_worker > 1) {
        worker->pool =
            std::make_unique<ThreadPool>(options_.compute_threads_per_worker);
      }
      workers_.push_back(std::move(worker));
    }
    for (auto& worker : workers_) {
      technique_->BindWorker(worker->id, worker.get());
    }
    if (fault_active_) {
      supervisor_ = std::make_unique<Supervisor>(
          num_workers, options_.fault.supervisor,
          [this](const FailureReport& report) { OnWorkerFailure(report); });
    }
    for (auto& worker : workers_) {
      WorkerState* ws = worker.get();
      ws->comm_thread = std::thread([this, ws] { CommLoop(*ws); });
    }

    if (use_introspector) {
      Introspector& in = Introspector::Get();
      const char* kind =
          granularity_ == SyncTechnique::Granularity::kPartitionLock
              ? "partition"
              : (granularity_ == SyncTechnique::Granularity::kVertexLock ||
                 granularity_ == SyncTechnique::Granularity::kBspVertexLock)
                    ? "vertex"
                    : "worker";
      in.Configure(num_workers, kind);
      in.SetQueueProbe([this](WorkerId w, int64_t* inbox_depth,
                              int64_t* outbox_bytes) {
        *inbox_depth = transport_->InboxDepth(w);
        int64_t bytes = 0;
        for (const auto& out : workers_[w]->out) {
          sy::MutexLock lock(&out->mu);
          bytes += static_cast<int64_t>(out->writer.size());
        }
        *outbox_bytes = bytes;
      });
      in.Enable();
      if (options_.introspect) {
        watchdog_ = std::make_unique<Watchdog>(options_.watchdog);
        watchdog_->Start();
      }
    }
    if (supervisor_ != nullptr) supervisor_->Start();

    // --- computation phase --------------------------------------------
    WallTimer timer;
    {
      std::vector<std::thread> threads;
      threads.reserve(num_workers);
      for (auto& worker : workers_) {
        WorkerState* ws = worker.get();
        threads.emplace_back(
            [this, ws, &program] { WorkerLoop(*ws, program); });
      }
      for (auto& t : threads) t.join();
    }
    total_seconds += timer.ElapsedSeconds();

    // --- attempt teardown ---------------------------------------------
    // Supervisor first (worker threads are joined, so no failure report
    // can be mid-flight except from comm threads — which Stop() makes
    // no-ops). Then the watchdog, before the transport dies: its final
    // sample probes the transport's inbox depths via the queue probe.
    if (supervisor_ != nullptr) supervisor_->Stop();
    if (use_introspector) {
      if (watchdog_ != nullptr) watchdog_->Stop();
      Introspector& in = Introspector::Get();
      abort_reason = in.abort_reason();
      in.ClearQueueProbe();
      in.Disable();
    }
    transport_->Shutdown();
    for (auto& worker : workers_) {
      if (worker->comm_thread.joinable()) worker->comm_thread.join();
      if (worker->pool != nullptr) worker->pool->Shutdown();
    }

    if (!attempt_failed_.load(std::memory_order_acquire)) {
      // A clean finish absorbs earlier failures: recovery worked, so the
      // degraded mark the supervisor raised no longer describes us.
      HealthState::Get().ClearComponent("supervisor");
      break;
    }

    // Failed attempt: recover if allowed, otherwise degrade gracefully
    // into an Aborted status carrying the recovery report.
    std::string reason;
    {
      sy::MutexLock lock(&recovery_mu_);
      reason = failure_reason_;
    }
    if (!options_.fault.recover ||
        recovery_attempts_ >= options_.fault.max_recovery_attempts) {
      std::string verdict =
          options_.fault.recover
              ? "recovery exhausted after " +
                    std::to_string(recovery_attempts_) +
                    " attempts: " + reason
              : "worker failure (recovery disabled): " + reason;
      AddRecoveryEvent(verdict);
      HealthState::Get().Report(HealthLevel::kUnhealthy, "engine", verdict);
      return Status::Aborted(verdict);
    }
    // Exponential backoff before the restore: transient causes (a slow
    // disk, a burst of injected delays) get time to clear.
    int64_t backoff = options_.fault.recovery_backoff_ms;
    for (int i = 0; i < recovery_attempts_; ++i) backoff *= 2;
    if (backoff > options_.fault.recovery_backoff_max_ms) {
      backoff = options_.fault.recovery_backoff_max_ms;
    }
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    ++recovery_attempts_;
    recovery_attempts_counter_->Increment();
    TelemetryHub::Get().run().recovery_attempts.store(
        // mo: live telemetry; approximate by design
        recovery_attempts_, std::memory_order_relaxed);
    Tracer::RecordInstant("engine.recovery_attempt");
    AddRecoveryEvent("recovery attempt " +
                     std::to_string(recovery_attempts_) + "/" +
                     std::to_string(options_.fault.max_recovery_attempts));
  }

  if (aborted_) {
    const std::string reason = abort_reason.empty()
                                   ? "run aborted by introspection watchdog"
                                   : abort_reason;
    HealthState::Get().Report(HealthLevel::kUnhealthy, "engine", reason);
    return Status::Aborted(reason);
  }

  if (injector_guard.armed) {
    FaultInjector& injector = FaultInjector::Get();
    metrics_.GetCounter("fault.events_fired")->Add(injector.events_fired());
    for (const std::string& line : injector.fired_log()) {
      AddRecoveryEvent("fault fired: " + line);
    }
  }

  Result result;
  result.stats.supersteps = supersteps_done_;
  result.stats.converged = converged_;
  result.stats.computation_seconds = total_seconds;
  result.stats.metrics = metrics_.Snapshot();
  result.stats.metrics["pregel.supersteps"] = supersteps_done_;
  result.stats.timeline = timeline_->Collect();
  if (watchdog_ != nullptr) {
    const WatchdogSummary& wd = watchdog_->summary();
    result.stats.resource_kind = Introspector::Get().resource_kind();
    result.stats.contention = wd.top_contention;
    result.stats.contention_edges = wd.top_edges;
    result.stats.introspect_snapshots = wd.snapshots;
    result.stats.introspect_stalls = wd.stalls_flagged;
    result.stats.introspect_deadlocks = wd.deadlocks_detected;
    result.stats.introspect_incidents = wd.incidents;
  }
  result.stats.recovery_attempts = recovery_attempts_;
  {
    sy::MutexLock lock(&recovery_mu_);
    result.stats.recovery_events = recovery_events_;
  }
  if (perf_active_) {
    // Workers are joined: drain the run totals, fold the curated set
    // into registry counters (already snapshotted above, so re-snapshot
    // after), and attach the full per-phase breakdown + memory samples.
    result.stats.perf_enabled = true;
    result.stats.perf_hw_counters = PerfCounters::hw_available();
    result.stats.perf_fallback = PerfCounters::fallback_reason();
    PerfDelta run_total;
    const PerfPhase kPhases[] = {PerfPhase::kCompute, PerfPhase::kFlushWait,
                                 PerfPhase::kBarrier, PerfPhase::kForkWait};
    for (PerfPhase phase : kPhases) {
      const PerfDelta d = perf_totals_.Exchange(phase);
      for (int f = 0; f < kNumPerfFields; ++f) {
        result.stats.perf_phases[std::string(PerfPhaseName(phase)) + "." +
                                 PerfFieldName(f)] = d.v[f];
      }
      run_total.Accumulate(d);
    }
    metrics_.GetCounter("perf.cycles")->Add(run_total.v[kPerfCycles]);
    metrics_.GetCounter("perf.instructions")
        ->Add(run_total.v[kPerfInstructions]);
    metrics_.GetCounter("perf.llc_loads")->Add(run_total.v[kPerfLlcLoads]);
    metrics_.GetCounter("perf.llc_misses")->Add(run_total.v[kPerfLlcMisses]);
    metrics_.GetCounter("perf.branch_misses")
        ->Add(run_total.v[kPerfBranchMisses]);
    metrics_.GetCounter("perf.dtlb_misses")->Add(run_total.v[kPerfDtlbMisses]);
    metrics_.GetCounter("perf.task_clock_ms")
        ->Add(run_total.v[kPerfTaskClockNs] / 1000000);
    metrics_.GetCounter("perf.ctx_switches")
        ->Add(run_total.v[kPerfHwCtxSwitches]);
    metrics_.GetCounter("perf.minor_faults")
        ->Add(run_total.v[kPerfMinorFaults]);
    metrics_.GetCounter("perf.major_faults")
        ->Add(run_total.v[kPerfMajorFaults]);
    // One final memory probe so short runs still report a peak.
    mem_peak_gauge_->Observe(mem_sampler_.Sample().peak_rss_kb);
    result.stats.peak_rss_kb = mem_sampler_.peak_rss_kb();
    result.stats.mem_samples = mem_samples_;
    result.stats.metrics = metrics_.Snapshot();
    result.stats.metrics["pregel.supersteps"] = supersteps_done_;
  }
  for (int slot = 0; slot < kNumAggregatorSlots; ++slot) {
    result.stats.aggregates[slot] = global_aggregates_[slot];
  }
  result.values = std::move(values_);
  result.history = recorder_;
  return result;
}

}  // namespace serigraph

#endif  // SERIGRAPH_PREGEL_ENGINE_H_
