#ifndef SERIGRAPH_NET_TRANSPORT_H_
#define SERIGRAPH_NET_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/message.h"

namespace serigraph {

/// Parameters of the simulated network. The paper's evaluation runs on a
/// real EC2 cluster; here every cross-worker message pays a configurable
/// one-way latency plus a bandwidth term, so techniques that send many
/// small messages (vertex-based locking) or serialize execution behind a
/// token ring pay realistic costs while batched techniques amortize them.
/// Latencies are modelled as *delayed visibility* at the receiver — the
/// sender never blocks — so concurrent messages overlap exactly as they
/// would on a real network, even on a single-core host.
struct NetworkOptions {
  /// One-way delivery latency for any cross-worker message.
  int64_t one_way_latency_us = 0;
  /// Additional latency per KiB of payload (bandwidth term).
  int64_t per_kib_us = 0;

  /// Total simulated delay for a message of `bytes` size.
  int64_t DelayMicros(int64_t bytes) const {
    return one_way_latency_us + (bytes * per_kib_us) / 1024;
  }
};

/// In-process message fabric connecting `num_workers` workers. Each worker
/// owns one inbox; any thread may send to any worker. Per-(src,dst) FIFO
/// ordering is guaranteed even with size-dependent delays, which the
/// flush/ack protocol (condition C1's write-all) relies on.
///
/// Thread-safe. Receive blocks until a message's delivery time is reached;
/// Shutdown() unblocks all receivers with std::nullopt.
///
/// Every message carries a per-(src,dst) link sequence number assigned
/// under the destination inbox lock. Receivers drop already-delivered
/// sequences (`net.dup_dropped`) so injected duplicates cannot corrupt
/// fork/token protocol state, and report sequence gaps (`net.seq_gaps`)
/// — message loss — through the loss callback, which the engine turns
/// into a failed attempt (and a recovery).
class Transport {
 public:
  /// Invoked outside any transport lock when a receiver observes a gap in
  /// the link sequence from `src` (messages lost in transit).
  using LossCallback = std::function<void(WorkerId src, WorkerId dst,
                                          uint64_t expected, uint64_t got)>;

  Transport(int num_workers, NetworkOptions options, MetricRegistry* metrics);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Sends `msg` (src/dst must be set). Never blocks. Messages to the
  /// sender's own worker are delivered with zero latency.
  void Send(WireMessage msg);

  /// Blocks until a message for `worker` is deliverable or Shutdown().
  /// Returns std::nullopt only after Shutdown.
  std::optional<WireMessage> Receive(WorkerId worker);

  /// Non-blocking variant; returns std::nullopt if nothing deliverable.
  std::optional<WireMessage> TryReceive(WorkerId worker);

  /// True if `worker`'s inbox has no messages at all (including ones whose
  /// delivery time has not yet arrived).
  bool InboxEmpty(WorkerId worker) const;

  /// Number of messages currently queued for `worker` (delivered or not);
  /// the watchdog's queue-depth probe.
  int64_t InboxDepth(WorkerId worker) const;

  /// Installs the loss callback. Must be called before any receiver
  /// thread is running (the engine sets it right after construction).
  void SetLossCallback(LossCallback cb) { loss_cb_ = std::move(cb); }

  /// Unblocks all receivers permanently.
  void Shutdown();

  int num_workers() const { return static_cast<int>(inboxes_.size()); }
  const NetworkOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Item {
    Clock::time_point ready;
    uint64_t seq;
    WireMessage msg;
    friend bool operator>(const Item& a, const Item& b) {
      if (a.ready != b.ready) return a.ready > b.ready;
      return a.seq > b.seq;
    }
  };

  struct Inbox {
    mutable sy::Mutex mu;
    sy::CondVar cv;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue
        SY_GUARDED_BY(mu);
    /// Last assigned delivery time per sender, to preserve per-pair FIFO.
    std::vector<Clock::time_point> last_ready_from SY_GUARDED_BY(mu);
    /// Zero-delay fast path (fast_path_ only): every message is
    /// immediately deliverable, so a plain FIFO ring replaces the
    /// priority queue and the per-sender deadline bookkeeping.
    MessageRing fifo SY_GUARDED_BY(mu);
    /// Next link sequence number to assign per sender (sender side; the
    /// stamp happens under this inbox's lock so link order matches
    /// delivery order).
    std::vector<uint64_t> next_link_seq SY_GUARDED_BY(mu);
    /// Highest link sequence delivered per sender (receiver side).
    std::vector<uint64_t> delivered_link_seq SY_GUARDED_BY(mu);
  };

  /// A sequence gap observed while receiving; reported outside the lock.
  struct GapInfo {
    WorkerId src;
    uint64_t expected;
    uint64_t got;
  };

  NetworkOptions options_;
  /// True when the configured delay is identically zero (no base
  /// latency, no bandwidth term) — the common test/bench configuration —
  /// and no fault plan is armed (injected delays need the timed queue).
  const bool fast_path_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  std::atomic<uint64_t> seq_{0};
  std::atomic<bool> shutdown_{false};
  LossCallback loss_cb_;

  // Traffic counters (owned by the caller's registry).
  Counter* wire_messages_;
  Counter* wire_bytes_;
  Counter* control_messages_;
  Counter* data_batches_;
  Counter* local_messages_;
  Counter* fastpath_messages_;
  Counter* dup_dropped_;
  Counter* seq_gaps_;
  Counter* fault_injected_;
  // Per-batch distributions: simulated wire delay and batch size of
  // cross-worker data batches.
  Histogram* batch_delay_hist_;
  Histogram* batch_bytes_hist_;
  /// Deepest any inbox got (memory-pressure signal: a worker falling
  /// behind its senders shows up here before it shows up in RSS).
  MaxGauge* peak_inbox_depth_;
};

}  // namespace serigraph

#endif  // SERIGRAPH_NET_TRANSPORT_H_
