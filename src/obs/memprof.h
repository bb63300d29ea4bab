#ifndef SERIGRAPH_OBS_MEMPROF_H_
#define SERIGRAPH_OBS_MEMPROF_H_

#include <cstdint>
#include <vector>

namespace serigraph {

/// Memory observability (docs/PROFILING.md): process RSS from
/// /proc/self/status with a getrusage fallback, plus the per-superstep
/// sample record the engine fills when perf_counters is on.

struct MemoryStatus {
  /// Current resident set (VmRSS), in KiB. 0 when unreadable.
  int64_t rss_kb = 0;
  /// Kernel-tracked peak resident set (VmHWM), in KiB. May be 0 on
  /// platforms without /proc; the sampler's own peak covers that case.
  int64_t peak_rss_kb = 0;
};

/// One read of the process memory status. Never fails; unreadable
/// sources report zeros.
MemoryStatus ReadMemoryStatus();

/// Tracks a monotonic peak across repeated samples, so the reported
/// peak never decreases even where VmHWM is unavailable and the
/// current RSS fluctuates.
class MemorySampler {
 public:
  /// Reads the current status and folds it into the running peak.
  MemoryStatus Sample() {
    MemoryStatus s = ReadMemoryStatus();
    if (s.rss_kb > peak_rss_kb_) peak_rss_kb_ = s.rss_kb;
    if (s.peak_rss_kb > peak_rss_kb_) peak_rss_kb_ = s.peak_rss_kb;
    s.peak_rss_kb = peak_rss_kb_;
    return s;
  }

  int64_t peak_rss_kb() const { return peak_rss_kb_; }

 private:
  int64_t peak_rss_kb_ = 0;
};

/// Per-superstep memory/arena sample, taken in the engine's serial
/// section (between supersteps) when EngineOptions::perf_counters is
/// set. The arena_*/max_chain_len fields (named after their store.*
/// metric keys) aggregate MessageStore::Stats() across stores.
struct MemSample {
  int superstep = 0;
  int64_t rss_kb = 0;
  int64_t peak_rss_kb = 0;
  /// Message-store inbox buffers holding allocated capacity.
  int64_t arena_chunks = 0;
  /// Messages queued in the inboxes.
  int64_t arena_nodes_in_use = 0;
  /// Messages the inbox buffers hold without reallocating.
  int64_t arena_node_capacity = 0;
  /// Longest per-vertex inbox seen across shards.
  int64_t max_chain_len = 0;
};

}  // namespace serigraph

#endif  // SERIGRAPH_OBS_MEMPROF_H_
