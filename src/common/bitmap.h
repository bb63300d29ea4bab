#ifndef SERIGRAPH_COMMON_BITMAP_H_
#define SERIGRAPH_COMMON_BITMAP_H_

// Word-packed bitmaps for frontier/eligibility tracking (PR 9).
//
// The engine used to keep per-vertex liveness in a byte array
// (`halted_[v]`) plus a per-partition atomic counter, which meant every
// barrier re-scanned O(V) bytes and every sparse superstep probed every
// vertex.  A Bitmap packs 64 vertices per cache line word, so
//   * "how many are active" is a popcount sweep (satellite: the
//     ActiveVertexCount / checkpoint-restore O(V) rescans),
//   * sparse supersteps iterate set bits and skip empty words entirely,
//   * concurrent workers touching disjoint vertices mostly touch
//     disjoint words, and when they do collide a relaxed RMW on the
//     word is enough (each bit is owned by exactly one vertex, and the
//     superstep barrier publishes everything before readers look).
//
// Two flavors of mutation are provided:
//   Set/Clear        - atomic RMW, safe for concurrent writers.
//   SetSerial/...    - plain read-modify-write for single-threaded
//                      phases (init, checkpoint restore, barrier).
// Readers in concurrent phases use Test (relaxed load); cross-phase
// visibility is provided by the engine's superstep barrier, never by
// the bitmap itself.  No mutexes anywhere: the whole point is that the
// frontier is lock-free (see docs/LOCK_ORDER.md, "Lock-free frontier
// bitmaps").

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace serigraph {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t bits) { Reset(bits); }

  // Movable so containers of owners can grow; never moved while workers
  // are concurrently mutating (phase-ownership, like MessageStore).
  Bitmap(Bitmap&& other) noexcept { *this = std::move(other); }
  Bitmap& operator=(Bitmap&& other) noexcept {
    if (this != &other) {
      bits_ = other.bits_;
      words_ = std::move(other.words_);
      other.bits_ = 0;
    }
    return *this;
  }

  /// (Re)sizes to `bits` bits, all cleared. Single-threaded.
  void Reset(size_t bits) {
    bits_ = bits;
    words_.assign(WordCount(), Word{0});
    // vector<atomic> value-initializes each word to 0; nothing else to do.
  }

  /// Clears every bit without reallocating. Single-threaded.
  void ClearAll() {
    for (Word& w : words_)
      w.v.store(0, std::memory_order_relaxed);  // mo: single-threaded phase;
    // the superstep barrier publishes before any concurrent reader runs.
  }

  /// Sets every valid bit (trailing bits of the last word stay 0 so
  /// popcount stays exact). Single-threaded.
  void SetAll() {
    if (bits_ == 0) return;
    for (Word& w : words_)
      w.v.store(~uint64_t{0}, std::memory_order_relaxed);  // mo: see ClearAll
    const size_t tail = bits_ & 63;
    if (tail != 0) {
      words_.back().v.store((uint64_t{1} << tail) - 1,
                            std::memory_order_relaxed);  // mo: see ClearAll
    }
  }

  size_t size() const { return bits_; }

  bool Test(size_t i) const {
    // mo: relaxed load — each bit has a single owning vertex; writes from
    // other phases are published by the engine's superstep barrier.
    return (words_[i >> 6].v.load(std::memory_order_relaxed) >>
            (i & 63)) & 1;
  }

  /// Atomically sets bit i; returns true if this call changed it.
  bool Set(size_t i) {
    const uint64_t mask = uint64_t{1} << (i & 63);
    // mo: relaxed RMW — only the bit's presence matters, and any payload
    // the bit guards is published by the shard lock / superstep barrier,
    // not by this word.
    return (words_[i >> 6].v.fetch_or(mask, std::memory_order_relaxed) &
            mask) == 0;
  }

  /// Atomically clears bit i; returns true if this call changed it.
  bool Clear(size_t i) {
    const uint64_t mask = uint64_t{1} << (i & 63);
    // mo: relaxed RMW — see Set().
    return (words_[i >> 6].v.fetch_and(~mask, std::memory_order_relaxed) &
            mask) != 0;
  }

  /// Plain (non-RMW) variants for single-threaded phases: cheaper than the
  /// atomic forms and make the phase structure explicit at call sites.
  void SetSerial(size_t i) {
    Word& w = words_[i >> 6];
    w.v.store(w.v.load(std::memory_order_relaxed)  // mo: single-threaded
                  | (uint64_t{1} << (i & 63)),
              std::memory_order_relaxed);  // mo: single-threaded phase
  }
  void ClearSerial(size_t i) {
    Word& w = words_[i >> 6];
    w.v.store(w.v.load(std::memory_order_relaxed)  // mo: single-threaded
                  & ~(uint64_t{1} << (i & 63)),
              std::memory_order_relaxed);  // mo: single-threaded phase
  }

  /// Number of set bits. O(words), not O(bits): this is the popcount that
  /// replaces the engine's per-vertex active rescans.
  size_t Popcount() const {
    size_t n = 0;
    for (const Word& w : words_)
      n += static_cast<size_t>(std::popcount(
          w.v.load(std::memory_order_relaxed)));  // mo: see Test()
    return n;
  }

  bool AnySet() const {
    for (const Word& w : words_)
      if (w.v.load(std::memory_order_relaxed) != 0) return true;  // mo: Test
    return false;
  }

  uint64_t word(size_t wi) const {
    return words_[wi].v.load(std::memory_order_relaxed);  // mo: see Test()
  }
  size_t WordCount() const { return (bits_ + 63) >> 6; }

  /// Calls fn(i) for every set bit in ascending order. Skips clear words
  /// in one load each — the sparse-superstep fast path.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    const size_t nw = words_.size();
    for (size_t wi = 0; wi < nw; ++wi) {
      uint64_t w = words_[wi].v.load(std::memory_order_relaxed);  // mo: Test
      while (w != 0) {
        const int b = std::countr_zero(w);
        fn((wi << 6) + static_cast<size_t>(b));
        w &= w - 1;
      }
    }
  }

  /// Popcount of the union with `other` (same size) without materializing
  /// it — "active or has pending messages" in one sweep.
  size_t PopcountUnion(const Bitmap& other) const {
    size_t n = 0;
    const size_t nw = words_.size();
    for (size_t wi = 0; wi < nw; ++wi) {
      n += static_cast<size_t>(std::popcount(
          words_[wi].v.load(std::memory_order_relaxed) |  // mo: see Test()
          other.words_[wi].v.load(std::memory_order_relaxed)));  // mo: Test
    }
    return n;
  }

  /// ForEachSetBit over the union with `other` (same size).
  template <typename Fn>
  void ForEachSetBitUnion(const Bitmap& other, Fn&& fn) const {
    const size_t nw = words_.size();
    for (size_t wi = 0; wi < nw; ++wi) {
      uint64_t w =
          words_[wi].v.load(std::memory_order_relaxed) |  // mo: see Test()
          other.words_[wi].v.load(std::memory_order_relaxed);  // mo: Test
      while (w != 0) {
        const int b = std::countr_zero(w);
        fn((wi << 6) + static_cast<size_t>(b));
        w &= w - 1;
      }
    }
  }

 private:
  // Wrapped so the vector is copy-free resizable (atomics are neither
  // copyable nor movable; Reset() reconstructs instead).
  struct Word {
    std::atomic<uint64_t> v{0};
    Word() = default;
    explicit Word(uint64_t x) : v(x) {}
    Word(const Word& o)
        : v(o.v.load(std::memory_order_relaxed)) {}  // mo: only during
    // single-threaded Reset()/vector growth; never racing a writer.
    Word& operator=(const Word& o) {
      v.store(o.v.load(std::memory_order_relaxed),  // mo: see copy ctor
              std::memory_order_relaxed);  // mo: see copy ctor
      return *this;
    }
  };

  size_t bits_ = 0;
  std::vector<Word> words_;
};

/// Set bits per 1000 of `total_bits`. The engine's frontier is the
/// union active|pending of each partition's bitmaps; it passes the
/// global vertex count so per-partition popcounts report global density
/// (and, for the push/pull switch's edge share, the out-edge count).
inline int64_t DensityMilli(size_t set_bits, size_t total_bits) {
  if (total_bits == 0) return 0;
  return static_cast<int64_t>((set_bits * 1000) / total_bits);
}

}  // namespace serigraph

#endif  // SERIGRAPH_COMMON_BITMAP_H_
