#ifndef SERIGRAPH_PREGEL_MESSAGE_STORE_H_
#define SERIGRAPH_PREGEL_MESSAGE_STORE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitmap.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "graph/types.h"

namespace serigraph {

/// Inbox-occupancy snapshot of one MessageStore (or a sum over stores),
/// feeding the per-superstep MemSample rows and store.* gauges when
/// EngineOptions::perf_counters is on (docs/PROFILING.md). The field
/// names follow the store.arena_* / store.max_chain_len metric keys.
struct MessageStoreArenaStats {
  /// Inbox buffers holding allocated capacity (retained across supersteps).
  int64_t chunks = 0;
  /// Messages those buffers hold without reallocating.
  int64_t node_capacity = 0;
  /// Messages queued in the inboxes (dense mode: live accumulators).
  int64_t nodes_in_use = 0;
  /// Longest per-vertex inbox.
  int64_t max_chain_len = 0;

  void Accumulate(const MessageStoreArenaStats& other) {
    chunks += other.chunks;
    node_capacity += other.node_capacity;
    nodes_in_use += other.nodes_in_use;
    if (other.max_chain_len > max_chain_len) {
      max_chain_len = other.max_chain_len;
    }
  }
};

/// Shard count for a partition of `num_slots` vertices: a power of two,
/// about one shard per 32 vertices but never more than 16 shards (the
/// per-shard mutexes are the footprint, and batch delivery pays one
/// lock acquisition per shard touched).
int PickMessageStoreShards(int64_t num_slots);

/// Sharded message store for one partition.
///
/// Arrivals go into per-vertex inboxes: vertex `li` owns one contiguous
/// `std::vector<M>` guarded by the lock of shard `li & mask`, so
/// concurrent senders to one partition contend only per stripe. Inboxes
/// are cleared, never freed, so their buffers keep (and trade) capacity
/// across supersteps: once capacities settle, the store stops
/// allocating.
///
/// Two consumption modes:
///  - double-buffered (BSP): arrivals are invisible until Swap(), which
///    appends every inbox behind any unconsumed leftover slot content in
///    a single contiguous `flat_` buffer with per-vertex [off,len) slots.
///    Consume() then returns a zero-copy span and takes NO lock — the
///    flat side is written only inside Swap() (barrier serial phase,
///    one thread per partition) and each slot is consumed by exactly
///    one executing thread, which is the engine's existing per-vertex
///    execution exclusivity. That phase-ownership argument is why
///    `flat_`/`slots_` carry no mutex.
///  - direct (AP): the inboxes are the visible store; Consume() swaps
///    the inbox with the caller's cleared scratch vector under the shard
///    lock, so the span it returns is the inbox's own buffer (nothing is
///    copied) and the scratch's old buffer becomes the empty inbox.
///
/// When the store has a combiner AND the message is trivially copyable,
/// the store runs in *dense accumulator* mode instead (PR 9): each slot
/// is a single in-place accumulator in a flat per-partition array, with
/// presence tracked in a word-packed bitmap. Appends fold straight into
/// the array (no inboxes are allocated), Consume returns a one-element
/// span over the accumulator, and Swap is a vector/bitmap swap plus a
/// leftover merge — the cache-friendly layout GPOP calls partition
/// bins. The inbox modes never combine: a combiner needs a trivially
/// copyable payload (checked in Init) and so always selects dense mode.
///
/// `pending()` (vertices with visible messages) is an atomic so
/// eligibility checks never touch a lock, and `pending_bits()` exposes
/// the same information as a bitmap so the engine's barrier accounting
/// is a popcount, not a rescan.
template <typename M>
class MessageStore {
 public:
  using CombineFn = M (*)(const M&, const M&);

  MessageStore() = default;
  MessageStore(const MessageStore&) = delete;
  MessageStore& operator=(const MessageStore&) = delete;

  /// Sizes the store for `num_slots` local vertices. `double_buffered`
  /// selects BSP semantics (arrivals visible only after Swap()).
  /// `combine` may be null; `shard_hint` (<= 64, rounded up to a power
  /// of two) overrides the default shard count — tests and benches use
  /// it.
  void Init(int32_t num_slots, bool double_buffered, CombineFn combine,
            int shard_hint = 0) {
    num_slots_ = num_slots;
    double_buffered_ = double_buffered;
    SG_CHECK(kDenseCapable || combine == nullptr);
    combine_ = combine;
    dense_ = combine != nullptr;
    int want = shard_hint > 0 ? shard_hint : PickMessageStoreShards(num_slots);
    // AppendBatch's per-shard tables hold kMaxShards entries; a hint
    // within it also resolves (rounded up) to at most kMaxShards.
    SG_CHECK_LE(want, kMaxShards);
    shard_bits_ = 0;
    while ((1 << shard_bits_) < want) ++shard_bits_;
    shard_mask_ = (1 << shard_bits_) - 1;
    shards_.clear();
    for (int s = 0; s < (1 << shard_bits_); ++s) {
      auto shard = std::make_unique<Shard>();
      if (!dense_) {
        // Init runs before the store is shared; the lock is uncontended
        // and keeps the annotations honest.
        sy::MutexLock lock(&shard->mu);
        shard->inboxes.resize(
            num_slots > s ? ((num_slots - 1 - s) >> shard_bits_) + 1 : 0);
      }
      shards_.push_back(std::move(shard));
    }
    if (double_buffered_ && !dense_) {
      slots_.assign(num_slots, Slot{});
      slots_spare_.assign(num_slots, Slot{});
      flat_.clear();
      flat_spare_.clear();
    }
    if (dense_) {
      acc_.assign(num_slots, M{});
      if (double_buffered_) {
        acc_in_.assign(num_slots, M{});
        in_bits_.Reset(num_slots);
      }
    }
    pending_bits_.Reset(num_slots);
    // mo: pending gauge; barrier orders the data
    pending_.store(0, std::memory_order_relaxed);
  }

  int num_shards() const { return 1 << shard_bits_; }
  int32_t num_slots() const { return num_slots_; }

  /// Number of vertices with visible (consumable) messages.
  // mo: pending gauge; barrier orders the data
  int64_t pending() const { return pending_.load(std::memory_order_relaxed); }

  /// Bitmap view of the visible-message slots. Lock-free reads; the
  /// engine unions this with its active bitmap to popcount eligibility
  /// at barriers and to iterate only eligible vertices in sparse
  /// supersteps. Dense/AP modes keep it exact (bit cleared on consume);
  /// the flat BSP side leaves it as the superstep-start snapshot —
  /// `Swap()` rebuilds it and nothing reads it mid-superstep, so the
  /// consume fast path stays free of an extra atomic RMW.
  const Bitmap& pending_bits() const { return pending_bits_; }

  /// Appends one message for local vertex `li`.
  void Append(int32_t li, const M& msg) {
    Shard& shard = *shards_[li & shard_mask_];
    sy::MutexLock lock(&shard.mu);
    AppendLocked(shard, li, msg);
  }

  /// Applies a decoded remote batch. One counting pass groups the
  /// records by shard, keeping batch order within a shard (so every
  /// vertex keeps its arrival order); each touched shard's lock is then
  /// taken once, in ascending shard order. Message payloads are moved
  /// out of `records`.
  void AppendBatch(std::span<std::pair<int32_t, M>> records) {
    // start[s]..start[s + 1] is shard s's range of `order`.
    std::array<uint32_t, kMaxShards + 1> start{};
    for (const auto& rec : records) ++start[(rec.first & shard_mask_) + 1];
    for (int s = 0; s <= shard_mask_; ++s) start[s + 1] += start[s];
    std::array<uint32_t, kMaxShards + 1> next = start;
    // Per thread: comm and compute threads may batch into one store at
    // the same time.
    thread_local std::vector<uint32_t> order;
    order.resize(records.size());
    for (uint32_t i = 0; i < records.size(); ++i) {
      order[next[records[i].first & shard_mask_]++] = i;
    }
    for (int s = 0; s <= shard_mask_; ++s) {
      if (start[s] == start[s + 1]) continue;
      Shard& shard = *shards_[s];
      sy::MutexLock lock(&shard.mu);
      for (uint32_t k = start[s]; k < start[s + 1]; ++k) {
        auto& rec = records[order[k]];
        AppendLocked(shard, rec.first, std::move(rec.second));
      }
    }
  }

  /// True if `li` has visible messages. Lock-free when double-buffered
  /// or dense.
  bool HasMessages(int32_t li) {
    if (dense_) return pending_bits_.Test(li);
    // Flat BSP: the slot length is the live truth (len drops to 0 on
    // consume; the pending bitmap is a superstep-start snapshot).
    if (double_buffered_) return slots_[li].len != 0;
    Shard& shard = *shards_[li & shard_mask_];
    sy::MutexLock lock(&shard.mu);
    return !shard.inboxes[li >> shard_bits_].empty();
  }

  /// BSP publish, run at the barrier with no concurrent append/consume
  /// on this partition: appends every inbox behind any unconsumed
  /// leftover slot content, rebuilding the contiguous flat buffer. Inbox
  /// and flat capacity are retained for reuse.
  void Swap() {
    SG_DCHECK(double_buffered_);
    if (dense_) {
      // The shard locks pair with the appenders' releases so the
      // lock-free reads below are ordered (the engine's barrier already
      // guarantees no appender is live here).
      for (int s = 0; s <= shard_mask_; ++s) {
        sy::MutexLock lock(&shards_[s]->mu);
      }
      // Merge unconsumed leftovers into the arriving side (leftover
      // first, matching the inbox-mode order), then publish by swapping
      // the accumulator array and presence bitmap wholesale.
      pending_bits_.ForEachSetBit([&](size_t li) {
        if (in_bits_.Test(li)) {
          acc_in_[li] = combine_(acc_[li], acc_in_[li]);
        } else {
          acc_in_[li] = acc_[li];
          in_bits_.SetSerial(li);
        }
      });
      acc_.swap(acc_in_);
      std::swap(pending_bits_, in_bits_);
      in_bits_.ClearAll();
      pending_.store(static_cast<int64_t>(pending_bits_.Popcount()),
                     // mo: pending gauge; barrier orders the data
                     std::memory_order_relaxed);
      return;
    }
    flat_spare_.clear();
    slots_spare_.assign(slots_.size(), Slot{});
    pending_bits_.ClearAll();
    int64_t pend = 0;
    for (int s = 0; s <= shard_mask_; ++s) {
      Shard& shard = *shards_[s];
      sy::MutexLock lock(&shard.mu);
      const int32_t n = static_cast<int32_t>(shard.inboxes.size());
      for (int32_t d = 0; d < n; ++d) {
        std::vector<M>& inbox = shard.inboxes[d];
        const int32_t li = (d << shard_bits_) | s;
        const Slot leftover = slots_[li];
        if (leftover.len == 0 && inbox.empty()) continue;
        const uint32_t off = static_cast<uint32_t>(flat_spare_.size());
        M* const left = flat_.data() + leftover.off;
        M* const arrived = inbox.data();
        flat_spare_.insert(flat_spare_.end(), std::make_move_iterator(left),
                           std::make_move_iterator(left + leftover.len));
        flat_spare_.insert(flat_spare_.end(), std::make_move_iterator(arrived),
                           std::make_move_iterator(arrived + inbox.size()));
        inbox.clear();
        slots_spare_[li] =
            Slot{off, static_cast<uint32_t>(flat_spare_.size()) - off};
        pending_bits_.SetSerial(li);
        ++pend;
      }
    }
    flat_.swap(flat_spare_);
    slots_.swap(slots_spare_);
    // mo: pending gauge; barrier orders the data
    pending_.store(pend, std::memory_order_relaxed);
  }

  /// Consumes `li`'s messages. Double-buffered: returns a zero-copy span
  /// into the flat buffer (valid until the next Swap) without locking.
  /// Direct mode: clears `*scratch` and swaps it with the inbox under
  /// the shard lock, returning a span over the inbox's own buffer.
  std::span<const M> Consume(int32_t li, std::vector<M>* scratch) {
    if (dense_) {
      if (double_buffered_) {
        // Lock-free like the flat path: the visible side is written only
        // in Swap() and each slot has one consumer.
        if (!pending_bits_.Test(li)) return {};
        pending_bits_.Clear(li);
        // mo: pending gauge; barrier orders the data
        pending_.fetch_sub(1, std::memory_order_relaxed);
        return std::span<const M>(&acc_[li], 1);
      }
      Shard& shard = *shards_[li & shard_mask_];
      sy::MutexLock lock(&shard.mu);
      if (!pending_bits_.Test(li)) return {};
      pending_bits_.Clear(li);
      // mo: pending gauge; barrier orders the data
      pending_.fetch_sub(1, std::memory_order_relaxed);
      scratch->assign(1, acc_[li]);
      return std::span<const M>(scratch->data(), 1);
    }
    if (double_buffered_) {
      Slot& slot = slots_[li];
      if (slot.len == 0) return {};
      std::span<const M> out(flat_.data() + slot.off, slot.len);
      slot.len = 0;
      // The pending bit stays set until the next Swap() rebuild (see
      // pending_bits()); clearing it here would put an atomic RMW on
      // every consume for a bit nobody reads mid-superstep.
      // mo: pending gauge; barrier orders the data
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return out;
    }
    Shard& shard = *shards_[li & shard_mask_];
    scratch->clear();
    {
      sy::MutexLock lock(&shard.mu);
      std::vector<M>& inbox = shard.inboxes[li >> shard_bits_];
      if (inbox.empty()) return {};
      inbox.swap(*scratch);
      pending_bits_.Clear(li);
      // mo: pending gauge; barrier orders the data
      pending_.fetch_sub(1, std::memory_order_relaxed);
    }
    return std::span<const M>(scratch->data(), scratch->size());
  }

  /// Checkpoint support (cold path): visible message count for `li` and
  /// in-order visitation. In direct mode the walk holds the shard lock.
  int64_t VisibleCount(int32_t li) {
    if (dense_) return pending_bits_.Test(li) ? 1 : 0;
    if (double_buffered_) return slots_[li].len;
    Shard& shard = *shards_[li & shard_mask_];
    sy::MutexLock lock(&shard.mu);
    return static_cast<int64_t>(shard.inboxes[li >> shard_bits_].size());
  }

  template <typename Fn>
  void ForEachVisible(int32_t li, Fn&& fn) {
    if (dense_) {
      if (pending_bits_.Test(li)) fn(acc_[li]);
      return;
    }
    if (double_buffered_) {
      const Slot slot = slots_[li];
      for (uint32_t k = 0; k < slot.len; ++k) fn(flat_[slot.off + k]);
      return;
    }
    Shard& shard = *shards_[li & shard_mask_];
    sy::MutexLock lock(&shard.mu);
    for (const M& m : shard.inboxes[li >> shard_bits_]) fn(m);
  }

  /// Inbox-occupancy snapshot across shards, one shard lock at a time.
  /// Safe to call concurrently with appends; the snapshot is per-shard
  /// consistent.
  MessageStoreArenaStats Stats() {
    MessageStoreArenaStats stats;
    for (int s = 0; s <= shard_mask_; ++s) {
      Shard& shard = *shards_[s];
      sy::MutexLock lock(&shard.mu);
      for (const std::vector<M>& inbox : shard.inboxes) {
        if (inbox.capacity() == 0) continue;
        const int64_t len = static_cast<int64_t>(inbox.size());
        ++stats.chunks;
        stats.node_capacity += static_cast<int64_t>(inbox.capacity());
        stats.nodes_in_use += len;
        stats.max_chain_len = std::max(stats.max_chain_len, len);
      }
    }
    if (dense_) {
      // No inboxes: report the live accumulator count so the occupancy
      // gauges stay meaningful, with inbox length capped at 1 by mode.
      stats.nodes_in_use = pending_bits_.Popcount();
      stats.max_chain_len = stats.nodes_in_use > 0 ? 1 : 0;
    }
    return stats;
  }

 private:
  static constexpr int kMaxShards = 64;

  struct Slot {
    uint32_t off = 0;
    uint32_t len = 0;
  };

  struct Shard {
    sy::Mutex mu;
    /// Per-vertex inboxes of this stripe (index li >> shard_bits); none
    /// in dense mode.
    std::vector<std::vector<M>> inboxes SY_GUARDED_BY(mu);
  };

  void AppendLocked(Shard& shard, int32_t li, M msg) SY_REQUIRES(shard.mu) {
    if (dense_) {
      // The shard lock serializes per-slot fold vs. claim; the atomic
      // bitmap ops handle cross-shard word sharing.
      std::vector<M>& acc = double_buffered_ ? acc_in_ : acc_;
      Bitmap& bits = double_buffered_ ? in_bits_ : pending_bits_;
      if (bits.Test(li)) {
        acc[li] = combine_(acc[li], msg);
      } else {
        acc[li] = std::move(msg);
        bits.Set(li);
        if (!double_buffered_) {
          // mo: pending gauge; barrier orders the data
          pending_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      return;
    }
    std::vector<M>& inbox = shard.inboxes[li >> shard_bits_];
    inbox.push_back(std::move(msg));
    if (inbox.size() == 1 && !double_buffered_) {
      pending_bits_.Set(li);
      // mo: pending gauge; barrier orders the data
      pending_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Dense accumulator mode needs memcpy-able payloads (the accumulator
  /// arrays swap wholesale at the barrier).
  static constexpr bool kDenseCapable = std::is_trivially_copyable_v<M>;

  int32_t num_slots_ = 0;
  bool double_buffered_ = false;
  bool dense_ = false;
  CombineFn combine_ = nullptr;
  int shard_bits_ = 0;
  int shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Dense accumulator sides (dense mode only). `acc_` is the visible
  // side (direct mode: the live side); `acc_in_`/`in_bits_` collect BSP
  // arrivals until Swap(). Same phase-ownership argument as flat_.
  std::vector<M> acc_;
  std::vector<M> acc_in_;
  Bitmap in_bits_;

  /// Visible-slot presence, mirrored with pending_ (bit li <=> li has
  /// consumable messages). Atomic word ops; see common/bitmap.h.
  Bitmap pending_bits_;

  // Flat (visible) side, double-buffered mode only. Unguarded by design:
  // written solely by Swap() in the barrier phase, read/consumed by the
  // per-vertex executor that the engine already serializes per vertex
  // (see the class comment's phase-ownership argument).
  std::vector<M> flat_;
  std::vector<M> flat_spare_;
  std::vector<Slot> slots_;
  std::vector<Slot> slots_spare_;

  std::atomic<int64_t> pending_{0};
};

/// Open-addressing map used for sender-side combining: folds messages
/// keyed by destination vertex, preserving first-insertion order for the
/// drain (so encoded batches stay deterministic for a given fold order).
/// Not thread-safe; the engine guards it with the out-buffer mutex.
template <typename M>
class CombiningMap {
 public:
  size_t size() const { return entries_.size(); }

  /// Folds `msg` into the entry for `dst` (via `combine`) or inserts a
  /// new entry. Returns true on insert — the caller uses that to grow
  /// its pending-bytes estimate.
  template <typename Fn>
  bool Fold(VertexId dst, const M& msg, Fn&& combine) {
    if (table_.empty()) {
      table_.assign(kInitialTable, -1);
      mask_ = kInitialTable - 1;
    }
    size_t idx = Hash(dst) & mask_;
    for (;;) {
      const int32_t e = table_[idx];
      if (e < 0) break;
      if (entries_[e].key == dst) {
        entries_[e].value = combine(entries_[e].value, msg);
        return false;
      }
      idx = (idx + 1) & mask_;
    }
    table_[idx] = static_cast<int32_t>(entries_.size());
    entries_.push_back(Entry{dst, msg});
    if (entries_.size() * 2 >= table_.size()) Grow();
    return true;
  }

  /// Moves all entries into `*out` (cleared first) in insertion order
  /// and resets the map, keeping its capacity.
  void Drain(std::vector<std::pair<VertexId, M>>* out) {
    out->clear();
    out->reserve(entries_.size());
    for (Entry& e : entries_) {
      out->emplace_back(e.key, std::move(e.value));
    }
    entries_.clear();
    table_.assign(table_.size(), -1);
  }

 private:
  static constexpr size_t kInitialTable = 1024;

  struct Entry {
    VertexId key;
    M value;
  };

  static size_t Hash(VertexId v) {
    uint64_t x = static_cast<uint64_t>(v) * 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(x >> 17);
  }

  void Grow() {
    table_.assign(table_.size() * 2, -1);
    mask_ = table_.size() - 1;
    for (size_t i = 0; i < entries_.size(); ++i) {
      size_t idx = Hash(entries_[i].key) & mask_;
      while (table_[idx] >= 0) idx = (idx + 1) & mask_;
      table_[idx] = static_cast<int32_t>(i);
    }
  }

  std::vector<Entry> entries_;
  std::vector<int32_t> table_;
  size_t mask_ = 0;
};

}  // namespace serigraph

#endif  // SERIGRAPH_PREGEL_MESSAGE_STORE_H_
