#include "obs/introspect.h"

#include <algorithm>

#include "obs/trace.h"

namespace serigraph {

std::atomic<bool> Introspector::enabled_{false};

const char* WorkerPhaseName(WorkerPhase phase) {
  switch (phase) {
    case WorkerPhase::kIdle: return "idle";
    case WorkerPhase::kCompute: return "compute";
    case WorkerPhase::kForkWait: return "fork_wait";
    case WorkerPhase::kFlushWait: return "flush_wait";
    case WorkerPhase::kBarrierWait: return "barrier_wait";
  }
  return "unknown";
}

Introspector& Introspector::Get() {
  static Introspector* instance = new Introspector();  // leaked singleton
  return *instance;
}

void Introspector::Configure(int num_workers, std::string resource_kind) {
  num_workers_ = num_workers;
  resource_kind_ = std::move(resource_kind);
  beacons_.clear();
  contention_.clear();
  beacons_.reserve(num_workers);
  contention_.reserve(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    beacons_.push_back(std::make_unique<Beacon>());
    Beacon& b = *beacons_.back();
    for (int i = 0; i < kMaxWaitTargets; ++i) {
      // mo: beacon cell; watchdog tolerates races
      b.wait_resource[i].store(-1, std::memory_order_relaxed);
      // mo: beacon cell; watchdog tolerates races
      b.wait_owner[i].store(-1, std::memory_order_relaxed);
    }
    contention_.push_back(std::make_unique<ContentionShard>());
  }
  BeginAttempt();
}

void Introspector::BeginAttempt() {
  for (auto& b : beacons_) {
    // mo: beacon cell; watchdog tolerates races
    b->dead.store(false, std::memory_order_relaxed);
  }
  {
    sy::MutexLock lock(&abort_mu_);
    abort_reason_.clear();
  }
  abort_requested_.store(false, std::memory_order_release);
}

void Introspector::SetPhase(WorkerId w, WorkerPhase phase, int superstep) {
  if (w < 0 || w >= static_cast<WorkerId>(beacons_.size())) return;
  Beacon& b = *beacons_[w];
  // mo: beacon cell; watchdog tolerates races
  b.phase.store(static_cast<uint8_t>(phase), std::memory_order_relaxed);
  // mo: beacon cell; watchdog tolerates races
  b.superstep.store(superstep, std::memory_order_relaxed);
  // mo: beacon cell; watchdog tolerates races
  b.phase_since_us.store(Tracer::NowMicros(), std::memory_order_relaxed);
}

void Introspector::BeginAcquire(WorkerId w, int64_t resource,
                                const WaitTarget* targets, int count,
                                int total) {
  if (w < 0 || w >= static_cast<WorkerId>(beacons_.size())) return;
  Beacon& b = *beacons_[w];
  const int n = std::min(count, kMaxWaitTargets);
  // Publish order: hide the old list (count=0), write entries, then expose
  // the new count with release so a reader that sees it also sees the
  // entries. A racing reader may briefly observe count==0 — fine for a
  // sampler.
  // mo: beacon cell; watchdog tolerates races
  b.wait_count.store(0, std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    // mo: beacon cell; watchdog tolerates races
    b.wait_resource[i].store(targets[i].resource, std::memory_order_relaxed);
    // mo: beacon cell; watchdog tolerates races
    b.wait_owner[i].store(targets[i].owner, std::memory_order_relaxed);
  }
  // mo: beacon cell; watchdog tolerates races
  b.wait_total.store(total, std::memory_order_relaxed);
  // mo: beacon cell; watchdog tolerates races
  b.acquiring.store(resource, std::memory_order_relaxed);
  // mo: beacon cell; watchdog tolerates races
  b.phase_since_us.store(Tracer::NowMicros(), std::memory_order_relaxed);
  b.phase.store(static_cast<uint8_t>(WorkerPhase::kForkWait),
                std::memory_order_relaxed);  // mo: beacon cell; watchdog tolerates races
  b.wait_count.store(n, std::memory_order_release);
}

void Introspector::EndAcquire(WorkerId w, int64_t resource, int64_t wait_us,
                              bool acquired) {
  if (w < 0 || w >= static_cast<WorkerId>(beacons_.size())) return;
  Beacon& b = *beacons_[w];
  // Capture the published wait targets before clearing: the per-edge
  // contention attribution splits the wait across the blockers that were
  // visible at wait entry.
  WaitTarget targets[kMaxWaitTargets];
  const int n =
      std::min(b.wait_count.load(std::memory_order_acquire), kMaxWaitTargets);
  for (int i = 0; i < n; ++i) {
    // mo: beacon cell; watchdog tolerates races
    targets[i].resource = b.wait_resource[i].load(std::memory_order_relaxed);
    // mo: beacon cell; watchdog tolerates races
    targets[i].owner = b.wait_owner[i].load(std::memory_order_relaxed);
  }
  // mo: beacon cell; watchdog tolerates races
  b.wait_count.store(0, std::memory_order_relaxed);
  // mo: beacon cell; watchdog tolerates races
  b.wait_total.store(0, std::memory_order_relaxed);
  // mo: beacon cell; watchdog tolerates races
  b.acquiring.store(-1, std::memory_order_relaxed);
  b.phase.store(static_cast<uint8_t>(WorkerPhase::kCompute),
                std::memory_order_relaxed);  // mo: beacon cell; watchdog tolerates races
  // mo: beacon cell; watchdog tolerates races
  b.phase_since_us.store(Tracer::NowMicros(), std::memory_order_relaxed);
  if (acquired) {
    // mo: beacon cell; watchdog tolerates races
    b.progress_epoch.fetch_add(1, std::memory_order_relaxed);
  }
  if (wait_us > 0) {
    ContentionShard& shard = *contention_[w];
    sy::MutexLock lock(&shard.mu);
    ContentionCell& cell = shard.by_resource[resource];
    cell.count += 1;
    cell.total_wait_us += wait_us;
    cell.max_wait_us = std::max(cell.max_wait_us, wait_us);
    if (n > 0) {
      const int64_t share = wait_us / n;
      for (int i = 0; i < n; ++i) {
        ContentionCell& edge = shard.by_edge[{resource, targets[i].resource}];
        edge.count += 1;
        edge.total_wait_us += share;
        edge.max_wait_us = std::max(edge.max_wait_us, share);
      }
    }
  }
}

void Introspector::OnProgress(WorkerId w) {
  if (w < 0 || w >= static_cast<WorkerId>(beacons_.size())) return;
  // mo: beacon cell; watchdog tolerates races
  beacons_[w]->progress_epoch.fetch_add(1, std::memory_order_relaxed);
}

void Introspector::EnterBlocked(WorkerId w) {
  if (w < 0 || w >= static_cast<WorkerId>(beacons_.size())) return;
  // mo: beacon cell; watchdog tolerates races
  beacons_[w]->blocked.fetch_add(1, std::memory_order_relaxed);
}

void Introspector::ExitBlocked(WorkerId w) {
  if (w < 0 || w >= static_cast<WorkerId>(beacons_.size())) return;
  Beacon& b = *beacons_[w];
  // mo: beacon cell; watchdog tolerates races
  b.blocked.fetch_sub(1, std::memory_order_relaxed);
  // mo: beacon cell; watchdog tolerates races
  b.progress_epoch.fetch_add(1, std::memory_order_relaxed);
}

void Introspector::MarkDead(WorkerId w) {
  if (w < 0 || w >= static_cast<WorkerId>(beacons_.size())) return;
  // mo: beacon cell; watchdog tolerates races
  beacons_[w]->dead.store(true, std::memory_order_relaxed);
}

void Introspector::SetTokenHolder(WorkerId w, int64_t holder) {
  if (w < 0 || w >= static_cast<WorkerId>(beacons_.size())) return;
  // mo: beacon cell; watchdog tolerates races
  beacons_[w]->token_holder.store(holder, std::memory_order_relaxed);
}

void Introspector::RecordWait(WorkerId w, int64_t resource, int64_t wait_us) {
  if (w < 0 || w >= static_cast<WorkerId>(contention_.size())) return;
  if (wait_us <= 0) return;
  ContentionShard& shard = *contention_[w];
  sy::MutexLock lock(&shard.mu);
  ContentionCell& cell = shard.by_resource[resource];
  cell.count += 1;
  cell.total_wait_us += wait_us;
  cell.max_wait_us = std::max(cell.max_wait_us, wait_us);
}

BeaconSnapshot Introspector::ReadBeacon(WorkerId w) const {
  BeaconSnapshot snap;
  if (w < 0 || w >= static_cast<WorkerId>(beacons_.size())) return snap;
  const Beacon& b = *beacons_[w];
  // mo: beacon cell; watchdog tolerates races
  snap.phase = static_cast<WorkerPhase>(b.phase.load(std::memory_order_relaxed));
  // mo: beacon cell; watchdog tolerates races
  snap.superstep = b.superstep.load(std::memory_order_relaxed);
  // mo: beacon cell; watchdog tolerates races
  snap.phase_since_us = b.phase_since_us.load(std::memory_order_relaxed);
  // mo: beacon cell; watchdog tolerates races
  snap.progress_epoch = b.progress_epoch.load(std::memory_order_relaxed);
  // mo: beacon cell; watchdog tolerates races
  snap.acquiring = b.acquiring.load(std::memory_order_relaxed);
  // mo: beacon cell; watchdog tolerates races
  snap.token_holder = b.token_holder.load(std::memory_order_relaxed);
  // mo: beacon cell; watchdog tolerates races
  snap.blocked = b.blocked.load(std::memory_order_relaxed);
  // mo: beacon cell; watchdog tolerates races
  snap.dead = b.dead.load(std::memory_order_relaxed);
  const int n =
      std::min(b.wait_count.load(std::memory_order_acquire), kMaxWaitTargets);
  snap.wait_count = n;
  // mo: beacon cell; watchdog tolerates races
  snap.wait_total = b.wait_total.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    // mo: beacon cell; watchdog tolerates races
    snap.wait_resource[i] = b.wait_resource[i].load(std::memory_order_relaxed);
    // mo: beacon cell; watchdog tolerates races
    snap.wait_owner[i] = b.wait_owner[i].load(std::memory_order_relaxed);
  }
  ProbeQueues(w, &snap.inbox_depth, &snap.outbox_bytes);
  return snap;
}

WaitForGraph Introspector::BuildWaitForGraph() const {
  WaitForGraph graph;
  graph.num_workers = num_workers_;
  const int64_t now_us = Tracer::NowMicros();
  for (int w = 0; w < num_workers_; ++w) {
    const Beacon& b = *beacons_[w];
    // mo: beacon cell; watchdog tolerates races
    if (static_cast<WorkerPhase>(b.phase.load(std::memory_order_relaxed)) !=
        WorkerPhase::kForkWait) {
      continue;
    }
    const int n =
        std::min(b.wait_count.load(std::memory_order_acquire), kMaxWaitTargets);
    // mo: beacon cell; watchdog tolerates races
    const int64_t waiter = b.acquiring.load(std::memory_order_relaxed);
    // mo: beacon cell; watchdog tolerates races
    const int64_t since = b.phase_since_us.load(std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      WaitForEdge e;
      e.from = w;
      // mo: beacon cell; watchdog tolerates races
      e.to = b.wait_owner[i].load(std::memory_order_relaxed);
      e.waiter = waiter;
      // mo: beacon cell; watchdog tolerates races
      e.resource = b.wait_resource[i].load(std::memory_order_relaxed);
      e.waited_us = std::max<int64_t>(0, now_us - since);
      graph.edges.push_back(e);
    }
  }
  return graph;
}

std::vector<ContentionEntry> Introspector::ContentionTopK(int k) const {
  std::unordered_map<int64_t, ContentionCell> merged;
  for (const auto& shard_ptr : contention_) {
    sy::MutexLock lock(&shard_ptr->mu);
    for (const auto& [resource, cell] : shard_ptr->by_resource) {
      ContentionCell& out = merged[resource];
      out.count += cell.count;
      out.total_wait_us += cell.total_wait_us;
      out.max_wait_us = std::max(out.max_wait_us, cell.max_wait_us);
    }
  }
  std::vector<ContentionEntry> entries;
  entries.reserve(merged.size());
  for (const auto& [resource, cell] : merged) {
    entries.push_back({resource, cell.count, cell.total_wait_us,
                       cell.max_wait_us});
  }
  std::sort(entries.begin(), entries.end(),
            [](const ContentionEntry& a, const ContentionEntry& b) {
              if (a.total_wait_us != b.total_wait_us)
                return a.total_wait_us > b.total_wait_us;
              return a.resource < b.resource;
            });
  if (k >= 0 && static_cast<size_t>(k) < entries.size()) entries.resize(k);
  return entries;
}

std::vector<EdgeContentionEntry> Introspector::EdgeContentionTopK(int k) const {
  std::map<std::pair<int64_t, int64_t>, ContentionCell> merged;
  for (const auto& shard_ptr : contention_) {
    sy::MutexLock lock(&shard_ptr->mu);
    for (const auto& [edge, cell] : shard_ptr->by_edge) {
      ContentionCell& out = merged[edge];
      out.count += cell.count;
      out.total_wait_us += cell.total_wait_us;
    }
  }
  std::vector<EdgeContentionEntry> entries;
  entries.reserve(merged.size());
  for (const auto& [edge, cell] : merged) {
    entries.push_back({edge.first, edge.second, cell.count,
                       cell.total_wait_us});
  }
  std::sort(entries.begin(), entries.end(),
            [](const EdgeContentionEntry& a, const EdgeContentionEntry& b) {
              if (a.total_wait_us != b.total_wait_us)
                return a.total_wait_us > b.total_wait_us;
              if (a.waiter != b.waiter) return a.waiter < b.waiter;
              return a.blocker < b.blocker;
            });
  if (k >= 0 && static_cast<size_t>(k) < entries.size()) entries.resize(k);
  return entries;
}

void Introspector::SetProbes(QueueProbe queues, ForkProbe forks) {
  sy::MutexLock lock(&probe_mu_);
  queue_probe_ = std::move(queues);
  fork_probe_ = std::move(forks);
}

void Introspector::ClearProbes() { SetProbes(nullptr, nullptr); }

void Introspector::ProbeQueues(WorkerId w, int64_t* inbox_depth,
                               int64_t* outbox_bytes) const {
  sy::MutexLock lock(&probe_mu_);
  if (queue_probe_) queue_probe_(w, inbox_depth, outbox_bytes);
}

StuckChain Introspector::ProbeForks() const {
  sy::MutexLock lock(&probe_mu_);
  return fork_probe_ ? fork_probe_() : StuckChain{};
}

void Introspector::RequestAbort(const std::string& reason) {
  {
    sy::MutexLock lock(&abort_mu_);
    // mo: poll flag; acted on at the next check
    if (abort_requested_.load(std::memory_order_relaxed)) return;
    abort_reason_ = reason;
  }
  abort_requested_.store(true, std::memory_order_release);
}

std::string Introspector::abort_reason() const {
  sy::MutexLock lock(&abort_mu_);
  return abort_reason_;
}

}  // namespace serigraph
