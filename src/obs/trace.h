#ifndef SERIGRAPH_OBS_TRACE_H_
#define SERIGRAPH_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace serigraph {

/// One recorded event: a completed span ('X' in the Chrome trace-event
/// format), a counter sample ('C', rendered by the viewer as a value
/// track: per-superstep IPC, LLC misses, RSS, see docs/PROFILING.md), an
/// instant ('i'), or one end of a flow arrow binding cross-thread
/// causality ('s' = start at the sender, 'f' = finish at the receiver).
/// `name` always has static storage duration (the recording macros pass
/// literals), so recording never copies or allocates.
struct TraceEvent {
  const char* name = nullptr;
  int64_t ts_us = 0;  ///< µs since the trace epoch (process start)
  int64_t value = 0;  ///< duration ('X'), sample ('C'), flow id ('s'/'f')
  char ph = 0;
  uint32_t tid = 0;   ///< the recording thread's lane in the export
};

/// Process-wide event store: one log per recording thread, fed by the
/// SG_TRACE_* macros. A single retention value decides what the logs keep:
///
///  - kTail (the default): the always-on flight recorder. Each log is a
///    ring of the thread's newest kTailEvents events, so the moments
///    before a deadlock, crash or abort stay reconstructible in incident
///    bundles.
///  - kFull (Enable()): the `--trace-out` trace. Logs grow one chunk of
///    kTailEvents at a time up to kMaxChunksPerThread chunks; after that a
///    thread's events are dropped and counted. A log whose tail already
///    wrapped before Enable() stays a ring until Reset().
///  - kOff: nothing is recorded and no lock is taken (serichk, whose
///    explored state space must not contain the recorder's registration).
///
/// Recording is lock-free after a thread's first event: slots are relaxed
/// atomics written by the owning thread only, and the log's `head` is
/// published with a release store. An exporter reading a full trace sees
/// a consistent prefix of every log; a tail being overwritten while it is
/// read may yield a torn event (fields from two records), which every
/// field individually survives because names are static literals.
///
/// A thread's log goes to a free list when the thread exits and the next
/// new thread takes it over, so a process that starts fresh engine threads
/// for every run holds as many logs as it ever had threads alive at once.
/// Under kFull a new thread only takes an empty free log, so the events of
/// exited threads stay exportable until Reset().
class Tracer {
 public:
  /// Events per chunk; a tail keeps this many events per thread.
  static constexpr size_t kTailEvents = 2048;
  /// A full trace keeps at most kTailEvents * kMaxChunksPerThread (1M)
  /// events per thread.
  static constexpr size_t kMaxChunksPerThread = 512;

  enum class Retention : int { kOff, kTail, kFull };

  /// The process-wide instance used by the SG_TRACE_* macros.
  static Tracer& Get();

  static Retention retention() {
    // mo: on/off gate; stale reads tolerated
    return retention_.load(std::memory_order_relaxed);
  }
  static void SetRetention(Retention retention) {
    // mo: on/off gate; stale reads tolerated
    retention_.store(retention, std::memory_order_relaxed);
  }
  /// Whether events are recorded at all.
  static bool recording() { return retention() != Retention::kOff; }
  /// Whether a full trace is being kept (flow arrows, fork-wait spans and
  /// thread names are only produced then).
  static bool enabled() { return retention() == Retention::kFull; }

  void Enable() { SetRetention(Retention::kFull); }
  /// Back to the always-on tail; events recorded so far stay.
  void Disable() { SetRetention(Retention::kTail); }

  /// Microseconds since the trace epoch (process start).
  static int64_t NowMicros();

  /// Appends one event to the calling thread's log. `name` must have
  /// static storage duration.
  static void Record(const char* name, char ph, int64_t ts_us, int64_t value);
  /// An instant event stamped with the current time.
  static void RecordInstant(const char* name) {
    Record(name, 'i', NowMicros(), 0);
  }
  /// One end of a flow arrow at the current time: `ph` is 's' at the
  /// sender or 'f' at the receiver; both ends carry the same name and id.
  static void RecordFlow(const char* name, char ph, uint64_t id) {
    Record(name, ph, NowMicros(), static_cast<int64_t>(id));
  }

  /// Allocates a process-unique nonzero flow id (for WireMessage::span).
  static uint64_t NextFlowId();

  /// Names the calling thread's lane in the export ("worker-3"). The last
  /// name wins; a thread's name is dropped when another thread takes over
  /// its log. Ignored under kOff.
  void SetCurrentThreadName(const std::string& name);

  /// The newest `max_per_thread` events of every log, sorted by time.
  std::vector<TraceEvent> Snapshot(
      size_t max_per_thread = std::numeric_limits<size_t>::max()) const;

  /// The newest `max_per_thread` events of every log, plus the thread
  /// names, as Chrome trace-event JSON (chrome://tracing, Perfetto):
  ///   {"traceEvents":[{"name":...,"ph":"X","pid":0,"tid":...,
  ///                    "ts":...,"dur":...}, ...]}
  /// Safe to call while other threads record.
  std::string ToChromeTraceJson(
      size_t max_per_thread = std::numeric_limits<size_t>::max()) const;

  /// Writes ToChromeTraceJson() (every retained event) to `path`.
  Status WriteChromeTrace(const std::string& path) const;

  /// Events recorded since Reset(), including overwritten ones.
  int64_t event_count() const;
  /// Logs allocated so far: the peak number of recording threads alive
  /// at once, plus under kFull the exited threads kept for export.
  size_t log_count() const;
  /// Events dropped because a thread exhausted its full-trace budget.
  int64_t dropped_count() const {
    return dropped_.load(std::memory_order_relaxed);  // mo: stat counter
  }

  /// Discards all recorded events and thread names and shrinks the logs
  /// of exited threads back to one chunk. Not safe with concurrent
  /// recording; meant for tests and between runs.
  void Reset();

 private:
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<int64_t> ts_us{0};
    std::atomic<int64_t> value{0};
    std::atomic<char> ph{0};
  };
  struct Chunk {
    Slot slots[kTailEvents];
  };
  struct Log {
    /// Events written since the log was last cleared. Written by the
    /// owning thread only (release), read by exporters (acquire).
    std::atomic<uint64_t> head{0};
    /// Chunks in use; grown by the owner under kFull, shrunk by Reset().
    std::atomic<size_t> num_chunks{0};
    std::atomic<Chunk*> chunks[kMaxChunksPerThread] = {};
    uint32_t tid = 0;  ///< written under logs_mu_ when a thread takes it
    std::string name;  ///< guarded by logs_mu_
  };
  /// Thread-local owner of the calling thread's log: its destructor, run
  /// at thread exit, hands the log back to free_logs_.
  struct LogLease {
    Log* log = nullptr;
    LogLease() = default;
    ~LogLease();
    LogLease(const LogLease&) = delete;
    LogLease& operator=(const LogLease&) = delete;
  };

  Tracer() = default;
  Log* LogForThisThread();
  /// Calls `on_log(log)` and then `on_event(event)` for each of the
  /// newest `max_per_thread` events of every log, oldest first.
  template <typename OnLog, typename OnEvent>
  void ForEachEvent(size_t max_per_thread, OnLog on_log,
                    OnEvent on_event) const;

  static std::atomic<Retention> retention_;

  /// Leaf lock: guards registration, thread names and export; recording
  /// takes it only on a thread's first event.
  mutable sy::Mutex logs_mu_;
  std::vector<Log*> logs_ SY_GUARDED_BY(logs_mu_);
  /// Logs of exited threads, waiting for a new thread. Their events stay
  /// exportable until the log is taken again.
  std::vector<Log*> free_logs_ SY_GUARDED_BY(logs_mu_);
  uint32_t next_tid_ SY_GUARDED_BY(logs_mu_) = 1;
  /// Events recorded into logs before they were taken over.
  int64_t reused_events_ SY_GUARDED_BY(logs_mu_) = 0;
  std::atomic<int64_t> dropped_{0};
};

/// RAII span: records a complete event from construction to destruction.
/// `name` must be a string literal (or otherwise outlive the tracer).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (Tracer::recording()) {
      name_ = name;
      start_us_ = Tracer::NowMicros();
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (name_ != nullptr) {
      Tracer::Record(name_, 'X', start_us_, Tracer::NowMicros() - start_us_);
    }
  }

 private:
  const char* name_ = nullptr;
  int64_t start_us_ = 0;
};

#define SG_TRACE_CONCAT_INNER(a, b) a##b
#define SG_TRACE_CONCAT(a, b) SG_TRACE_CONCAT_INNER(a, b)

/// Traces the enclosing scope as a span named `name` (a string literal).
#define SG_TRACE_SPAN(name) \
  ::serigraph::TraceSpan SG_TRACE_CONCAT(sg_trace_span_, __COUNTER__)(name)

/// Records an already-measured interval (for spans that do not map to a
/// lexical scope, e.g. token hold times).
#define SG_TRACE_INTERVAL(name, start_us, dur_us) \
  ::serigraph::Tracer::Record((name), 'X', (start_us), (dur_us))

/// Records a counter sample on the calling thread's track.
#define SG_TRACE_COUNTER(name, value)                                      \
  ::serigraph::Tracer::Record((name), 'C', ::serigraph::Tracer::NowMicros(), \
                              (value))

}  // namespace serigraph

#endif  // SERIGRAPH_OBS_TRACE_H_
