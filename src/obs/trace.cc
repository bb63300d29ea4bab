#include "obs/trace.h"

#include <algorithm>
#include <chrono>

#include "obs/report.h"

namespace serigraph {

std::atomic<Tracer::Retention> Tracer::retention_{Tracer::Retention::kTail};

namespace {

/// Fixed process-wide epoch so timestamps from all threads share a zero.
std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

Tracer& Tracer::Get() {
  // Leaked on purpose: threads exiting during static destruction still
  // hand their logs back, and a fatal-signal dump may read them then.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

int64_t Tracer::NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - TraceEpoch())
      .count();
}

Tracer::Log* Tracer::LogForThisThread() {
  static thread_local LogLease lease;
  if (lease.log != nullptr) return lease.log;
  sy::MutexLock lock(&logs_mu_);
  // A tail takes any free log; a full trace only an empty one, so exited
  // threads' events stay exportable until Reset().
  const bool full = enabled();
  const auto it = std::find_if(
      free_logs_.rbegin(), free_logs_.rend(), [full](const Log* log) {
        // mo: the previous owner released the log under logs_mu_
        return !full || log->head.load(std::memory_order_relaxed) == 0;
      });
  Log* log = nullptr;
  if (it == free_logs_.rend()) {
    log = new Log();  // never freed: the tracer outlives every thread
    // mo: published to exporters by logs_mu_
    log->chunks[0].store(new Chunk(), std::memory_order_relaxed);
    // mo: published to exporters by logs_mu_
    log->num_chunks.store(1, std::memory_order_relaxed);
    logs_.push_back(log);
  } else {
    log = *it;
    free_logs_.erase(std::next(it).base());
    // The previous owner's events leave the export here but stay in
    // event_count(); its last writes happened before it released the log.
    // mo: the previous owner released the log under logs_mu_
    const uint64_t head = log->head.exchange(0, std::memory_order_relaxed);
    reused_events_ += static_cast<int64_t>(head);
  }
  log->tid = next_tid_++;
  log->name.clear();
  lease.log = log;
  return log;
}

Tracer::LogLease::~LogLease() {
  if (log != nullptr) {
    Tracer& tracer = Tracer::Get();
    sy::MutexLock lock(&tracer.logs_mu_);
    tracer.free_logs_.push_back(log);
  }
  // A record from a later thread-exit destructor then takes a log of its
  // own instead of writing into one another thread may already own.
  log = nullptr;
}

void Tracer::Record(const char* name, char ph, int64_t ts_us, int64_t value) {
  const Retention retention = Tracer::retention();
  if (retention == Retention::kOff) return;
  Log* log = Get().LogForThisThread();
  // mo: owner-only cursor; this thread is its only writer
  const uint64_t head = log->head.load(std::memory_order_relaxed);
  // mo: owner-only count; this thread is its only writer
  size_t num_chunks = log->num_chunks.load(std::memory_order_relaxed);
  uint64_t capacity = num_chunks * kTailEvents;
  uint64_t pos = head;
  if (head == capacity && retention == Retention::kFull) {
    if (num_chunks == kMaxChunksPerThread) {
      Get().dropped_.fetch_add(1, std::memory_order_relaxed);  // mo: stat
      return;
    }
    // Publish the chunk before the count that exposes it.
    log->chunks[num_chunks].store(new Chunk(), std::memory_order_release);
    log->num_chunks.store(++num_chunks, std::memory_order_release);
  } else if (head >= capacity) {
    pos = num_chunks == 1 ? head % kTailEvents : head % capacity;
  }
  // mo: owner-only pointer; this thread stored it
  Chunk* chunk = log->chunks[pos / kTailEvents].load(std::memory_order_relaxed);
  Slot& slot = chunk->slots[pos % kTailEvents];
  // Relaxed slot stores: the release store of `head` below publishes them
  // to exporters; a tail overwritten mid-read may tear, field by field.
  // mo: published by the release store of head
  slot.name.store(name, std::memory_order_relaxed);
  // mo: published by the release store of head
  slot.ts_us.store(ts_us, std::memory_order_relaxed);
  // mo: published by the release store of head
  slot.value.store(value, std::memory_order_relaxed);
  // mo: published by the release store of head
  slot.ph.store(ph, std::memory_order_relaxed);
  log->head.store(head + 1, std::memory_order_release);
}

uint64_t Tracer::NextFlowId() {
  static std::atomic<uint64_t> next{1};
  // mo: id allocator; uniqueness only
  return next.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::SetCurrentThreadName(const std::string& name) {
  if (!recording()) return;
  Log* log = LogForThisThread();
  sy::MutexLock lock(&logs_mu_);
  log->name = name;
}

template <typename OnLog, typename OnEvent>
void Tracer::ForEachEvent(size_t max_per_thread, OnLog on_log,
                          OnEvent on_event) const {
  sy::MutexLock lock(&logs_mu_);
  for (const Log* log : logs_) {
    on_log(*log);
    // `head` before `num_chunks`: every chunk the acquired head covers
    // was published before it.
    const uint64_t head = log->head.load(std::memory_order_acquire);
    const uint64_t capacity =
        log->num_chunks.load(std::memory_order_acquire) * kTailEvents;
    const uint64_t n = std::min<uint64_t>({head, capacity, max_per_thread});
    for (uint64_t e = head - n; e < head; ++e) {
      const uint64_t pos = e % capacity;
      const Slot& slot = log->chunks[pos / kTailEvents]
                             .load(std::memory_order_acquire)
                             ->slots[pos % kTailEvents];
      TraceEvent event;
      // mo: published by the acquired head; tails may tear
      event.name = slot.name.load(std::memory_order_relaxed);
      if (event.name == nullptr) continue;
      // mo: published by the acquired head; tails may tear
      event.ts_us = slot.ts_us.load(std::memory_order_relaxed);
      // mo: published by the acquired head; tails may tear
      event.value = slot.value.load(std::memory_order_relaxed);
      // mo: published by the acquired head; tails may tear
      event.ph = slot.ph.load(std::memory_order_relaxed);
      event.tid = log->tid;
      on_event(event);
    }
  }
}

std::vector<TraceEvent> Tracer::Snapshot(size_t max_per_thread) const {
  std::vector<TraceEvent> events;
  ForEachEvent(
      max_per_thread, [](const Log&) {},
      [&events](const TraceEvent& event) { events.push_back(event); });
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return events;
}

std::string Tracer::ToChromeTraceJson(size_t max_per_thread) const {
  JsonWriter w;
  w.BeginObject().Key("traceEvents").BeginArray();
  const auto lane = [&w](const char* name, char ph, uint32_t tid) {
    w.BeginObject()
        .Key("name")
        .Value(name)
        .Key("ph")
        .Value(std::string(1, ph))
        .Key("pid")
        .Value(0)
        .Key("tid")
        .Value(static_cast<int64_t>(tid));
  };
  ForEachEvent(
      max_per_thread,
      [&](const Log& log) {
        if (log.name.empty()) return;
        lane("thread_name", 'M', log.tid);
        w.Key("args").BeginObject().Key("name").Value(log.name).EndObject();
        w.EndObject();
      },
      [&](const TraceEvent& e) {
        lane(e.name, e.ph, e.tid);
        w.Key("ts").Value(e.ts_us);
        switch (e.ph) {
          case 'X':
            w.Key("dur").Value(e.value);
            break;
          case 'C':  // the viewer plots args.value over time
            w.Key("args").BeginObject().Key("value").Value(e.value);
            w.EndObject();
            break;
          case 's':
          case 'f':
            // Flow arrow ends share an id; "f" binds to the enclosing
            // slice at the receiver ("bp":"e").
            w.Key("cat").Value("flow").Key("id").Value(e.value);
            if (e.ph == 'f') w.Key("bp").Value("e");
            break;
          default:  // instants mark the whole timeline
            w.Key("s").Value("g");
            break;
        }
        w.EndObject();
      });
  w.EndArray().Key("displayTimeUnit").Value("ms").EndObject();
  return w.str();
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  return WriteTextFile(path, ToChromeTraceJson());
}

int64_t Tracer::event_count() const {
  sy::MutexLock lock(&logs_mu_);
  int64_t total = reused_events_;
  for (const Log* log : logs_) {
    // mo: stat read; a live count is approximate by design
    total += static_cast<int64_t>(log->head.load(std::memory_order_relaxed));
  }
  return total;
}

size_t Tracer::log_count() const {
  sy::MutexLock lock(&logs_mu_);
  return logs_.size();
}

void Tracer::Reset() {
  sy::MutexLock lock(&logs_mu_);
  for (Log* log : logs_) {
    // mo: no concurrent recording (see the declaration)
    log->head.store(0, std::memory_order_relaxed);
    log->name.clear();
  }
  for (Log* log : free_logs_) {
    // mo: unowned log, guarded by logs_mu_
    const size_t n = log->num_chunks.exchange(1, std::memory_order_relaxed);
    for (size_t i = 1; i < n; ++i) {
      // mo: unowned log, guarded by logs_mu_
      delete log->chunks[i].exchange(nullptr, std::memory_order_relaxed);
    }
  }
  reused_events_ = 0;
  dropped_.store(0, std::memory_order_relaxed);  // mo: stat counter
}

}  // namespace serigraph
