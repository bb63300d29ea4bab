#include "sync/chandy_misra.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "common/logging.h"
#include "common/planted.h"
#include "fault/fault.h"
#include "obs/introspect.h"
#include "obs/trace.h"

namespace serigraph {

ChandyMisraTable::ChandyMisraTable(Config config)
    : config_(std::move(config)) {
  SG_CHECK_GT(config_.num_workers, 0);
  SG_CHECK(config_.worker_of != nullptr);
  SG_CHECK(config_.metrics != nullptr);
  SG_CHECK_EQ(static_cast<PhilosopherId>(config_.adjacency.size()),
              config_.count);
  SG_CHECK_NE(config_.request_tag, config_.transfer_tag);

  fork_requests_ = config_.metrics->GetCounter("sync.fork_requests");
  fork_transfers_ = config_.metrics->GetCounter("sync.fork_transfers");
  cross_worker_transfers_ =
      config_.metrics->GetCounter("sync.fork_transfers_cross_worker");
  handover_flushes_ = config_.metrics->GetCounter("sync.handover_flushes");

  shards_.reserve(config_.num_workers);
  for (int w = 0; w < config_.num_workers; ++w) {
    shards_.push_back(std::make_unique<WorkerShard>());
  }

  // Acyclic initial placement (Section 6.3): for each shared fork, the
  // philosopher with the smaller id holds the request token and the one
  // with the larger id holds the fork, dirty. Smaller ids therefore have
  // initial precedence over all larger-id neighbors.
  for (PhilosopherId p = 0; p < config_.count; ++p) {
    WorkerShard& shard = *shards_[config_.worker_of(p)];
    sy::MutexLock lock(&shard.mu);
    Philosopher& phil = shard.philosophers[p];
    for (PhilosopherId q : config_.adjacency[p]) {
      SG_CHECK_NE(p, q);
      uint8_t bits = 0;
      if (p > q) {
        bits = kHasFork | kDirty;
        // Negative control (serichk): hand the initial forks out *clean*.
        // OnRequest never yields a clean fork, so the acyclic initial
        // precedence graph freezes into a permanent one: two hungry
        // neighbors each keep waiting for the other's clean fork —
        // deadlock on the very first superstep.
        if (SG_PLANTED_BUG("cm.clean_initial_forks")) bits = kHasFork;
      } else {
        bits = kHasToken;
        ++num_forks_;
      }
      phil.edges.emplace(q, bits);
    }
  }
}

void ChandyMisraTable::BindWorker(WorkerId w, WorkerHandle* handle) {
  SG_CHECK(handle != nullptr);
  // Locked even though binding happens before compute threads start:
  // comm threads read `handle` under the shard lock, and the annotation
  // pass showed this write was the one unguarded access to it.
  sy::MutexLock lock(&shards_[w]->mu);
  shards_[w]->handle = handle;
}

bool ChandyMisraTable::Acquire(PhilosopherId p) {
  // Injection point, probed before the shard lock: a crash/hang here
  // abandons the acquisition (returns false, lock not held) exactly like
  // an introspector abort does.
  if (SG_FAULT_POINT("cm.acquire", config_.worker_of(p))) return false;
  WorkerShard& shard = ShardOf(p);
  sy::MutexLock lock(&shard.mu);
  Philosopher& phil = shard.philosophers[p];
  SG_CHECK(phil.state == State::kThinking);
  phil.state = State::kHungry;
  phil.missing_forks = 0;
  ++phil.version;
  const bool introspect = Introspector::enabled();
  Introspector::WaitTarget targets[Introspector::kMaxWaitTargets];
  int num_targets = 0;
  for (auto& [q, bits] : phil.edges) {
    if ((bits & kHasFork) != 0) continue;
    ++phil.missing_forks;
    if (introspect && num_targets < Introspector::kMaxWaitTargets) {
      targets[num_targets].resource = q;
      targets[num_targets].owner = config_.worker_of(q);
      ++num_targets;
    }
    if ((bits & kHasToken) != 0) {
      bits &= ~kHasToken;
      SendRequestLocked(shard, p, q);
    }
    // Without the token, the request is already outstanding: we sent the
    // token away earlier and the fork will arrive eventually.
  }
  const WorkerId self = config_.worker_of(p);
  // Wait until all forks are held. The generous timeout is a test-friendly
  // deadlock detector; the protocol itself is deadlock-free.
  const bool blocks = phil.missing_forks > 0;
  const bool timed = blocks && (introspect || Tracer::enabled());
  const int64_t wait_start_us = timed ? Tracer::NowMicros() : -1;
  if (blocks) {
    shard.waiting.push_back(p);
    if (introspect) {
      Introspector::Get().BeginAcquire(self, p, targets, num_targets,
                                       phil.missing_forks);
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(300);
  while (phil.missing_forks > 0) {
    if (introspect) {
      // Short slices so a watchdog-requested abort unblocks us promptly;
      // the fatal backstop still fires at the long deadline.
      shard.cv.WaitFor(shard.mu, std::chrono::milliseconds(100));
      if (phil.missing_forks == 0) break;
      Introspector& in = Introspector::Get();
      if (in.abort_requested()) {
        // Abandon the acquisition: back to thinking, forks not held.
        // Outstanding requested forks may still arrive; OnTransfer only
        // decrements missing_forks for hungry philosophers, so the late
        // arrivals are absorbed safely (and stay clean: the watchdog
        // confirms nothing while the abort is pending).
        phil.state = State::kThinking;
        phil.missing_forks = 0;
        ++phil.version;
        std::erase(shard.waiting, p);
        in.EndAcquire(self, p, Tracer::NowMicros() - wait_start_us,
                      /*acquired=*/false);
        return false;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        SG_LOG(kFatal) << "Chandy-Misra acquire stalled for philosopher " << p
                       << " (missing " << phil.missing_forks << " forks)";
      }
    } else if (shard.cv.WaitUntil(shard.mu, deadline) ==
               std::cv_status::timeout) {
      SG_LOG(kFatal) << "Chandy-Misra acquire stalled for philosopher " << p
                     << " (missing " << phil.missing_forks << " forks)";
    }
  }
  if (wait_start_us >= 0) {
    const int64_t waited = Tracer::NowMicros() - wait_start_us;
    if (Tracer::enabled()) {
      SG_TRACE_INTERVAL("cm.fork_wait", wait_start_us, waited);
    }
    if (introspect) {
      Introspector::Get().EndAcquire(self, p, waited, /*acquired=*/true);
    }
  }
  if (blocks) std::erase(shard.waiting, p);
  phil.state = State::kEating;
  ++phil.version;
  return true;
}

void ChandyMisraTable::Release(PhilosopherId p) {
  WorkerShard& shard = ShardOf(p);
  sy::MutexLock lock(&shard.mu);
  Philosopher& phil = shard.philosophers[p];
  SG_CHECK(phil.state == State::kEating);
  phil.state = State::kThinking;
  ++phil.version;
  for (auto& [q, bits] : phil.edges) {
    if ((bits & kHasFork) != 0) {
      bits |= kDirty;  // forks were used to eat
      if ((bits & kHasToken) != 0) {
        // Deferred request: the neighbor asked while we were eating.
        // Hand over the fork (cleaned); we keep the request token.
        bits &= ~(kHasFork | kDirty);
        SendTransferLocked(shard, p, q);
      }
    }
  }
}

bool ChandyMisraTable::HoldsAllForks(PhilosopherId p) {
  WorkerShard& shard = ShardOf(p);
  sy::MutexLock lock(&shard.mu);
  Philosopher& phil = shard.philosophers[p];
  for (const auto& [q, bits] : phil.edges) {
    if ((bits & kHasFork) == 0) return false;
  }
  return true;
}

void ChandyMisraTable::RequestMissingForks(PhilosopherId p) {
  WorkerShard& shard = ShardOf(p);
  sy::MutexLock lock(&shard.mu);
  Philosopher& phil = shard.philosophers[p];
  ++phil.version;
  for (auto& [q, bits] : phil.edges) {
    if ((bits & kHasFork) != 0 || (bits & kHasToken) == 0) continue;
    bits &= ~kHasToken;
    SendRequestLocked(shard, p, q);
  }
}

void ChandyMisraTable::MarkEaten(PhilosopherId p) {
  WorkerShard& shard = ShardOf(p);
  sy::MutexLock lock(&shard.mu);
  Philosopher& phil = shard.philosophers[p];
  SG_CHECK(phil.state == State::kThinking);
  ++phil.version;
  for (auto& [q, bits] : phil.edges) {
    if ((bits & kHasFork) == 0) continue;
    bits |= kDirty;
    if ((bits & kHasToken) != 0) {
      bits &= ~(kHasFork | kDirty);
      SendTransferLocked(shard, p, q);
    }
  }
}

void ChandyMisraTable::HandleControl(WorkerId w, const WireMessage& msg) {
  WorkerShard& shard = *shards_[w];
  const PhilosopherId from = msg.a;
  const PhilosopherId to = msg.b;
  SG_CHECK_EQ(config_.worker_of(to), w);
  if (msg.tag == config_.request_tag) {
    OnRequest(shard, from, to);
  } else if (msg.tag == config_.transfer_tag) {
    OnTransfer(shard, from, to);
  } else {
    SG_LOG(kFatal) << "unknown control tag " << msg.tag;
  }
}

void ChandyMisraTable::SendRequestLocked(WorkerShard& shard, PhilosopherId p,
                                         PhilosopherId q) {
  fork_requests_->Increment();
  SG_CHECK(shard.handle != nullptr);
  shard.handle->SendControl(config_.worker_of(q), config_.request_tag, p, q,
                            0);
}

void ChandyMisraTable::SendTransferLocked(WorkerShard& shard, PhilosopherId p,
                                          PhilosopherId q) {
  fork_transfers_->Increment();
  SG_CHECK(shard.handle != nullptr);
  const WorkerId dst = config_.worker_of(q);
  if (dst != shard.handle->worker_id()) {
    // Write-all rule (condition C1): pending remote replica updates must
    // reach `dst` before the fork does. The transport's per-pair FIFO
    // turns this flush-then-send into delivery-before-handover.
    SG_TRACE_SPAN("cm.handover_flush");
    handover_flushes_->Increment();
    // Negative control (serichk): skipping the flush lets the fork
    // overtake the replica updates it guards — the new holder can read a
    // stale replica (C1 violation in the recorded history).
    if (!SG_PLANTED_BUG("cm.skip_handover_flush")) {
      shard.handle->FlushRemoteTo(dst);
    }
    cross_worker_transfers_->Increment();
  }
  shard.handle->SendControl(dst, config_.transfer_tag, p, q, 0);
}

void ChandyMisraTable::OnRequest(WorkerShard& shard, PhilosopherId from,
                                 PhilosopherId to) {
  bool consistent = true;
  {
    sy::MutexLock lock(&shard.mu);
    Philosopher& phil = shard.philosophers[to];
    auto it = phil.edges.find(from);
    SG_CHECK(it != phil.edges.end());
    uint8_t& bits = it->second;
    // The requester relinquished the token; it now rests with us. The fork
    // must be here: exactly one endpoint holds it and the requester did
    // not. Either can break only when a control message vanished on the
    // wire (injected loss) — report outside the shard lock.
    if ((bits & kHasToken) != 0 || (bits & kHasFork) == 0) {
      consistent = false;
    } else {
      ++phil.version;
      bits |= kHasToken;
      const bool dirty = (bits & kDirty) != 0;
      if (phil.state == State::kEating || !dirty) {
        // Defer: an eating philosopher finishes first (hygiene); a clean
        // fork means we are hungry and have priority for it.
        return;
      }
      // Thinking-or-hungry with a dirty fork: we must yield it.
      bits &= ~(kHasFork | kDirty);
      SendTransferLocked(shard, to, from);
      if (phil.state == State::kHungry) {
        // We still need the fork: spend the token we just received to ask
        // for it back. The fork will return clean and then cannot be taken
        // again.
        ++phil.missing_forks;
        bits &= ~kHasToken;
        SendRequestLocked(shard, to, from);
      }
    }
  }
  if (!consistent) ReportViolation(from, to, "fork request");
}

void ChandyMisraTable::OnTransfer(WorkerShard& shard, PhilosopherId from,
                                  PhilosopherId to) {
  bool consistent = true;
  {
    sy::MutexLock lock(&shard.mu);
    Philosopher& phil = shard.philosophers[to];
    auto it = phil.edges.find(from);
    SG_CHECK(it != phil.edges.end());
    uint8_t& bits = it->second;
    // A transfer for a fork we already hold, or one we never asked for,
    // means an earlier control message on this edge was lost.
    if ((bits & kHasFork) != 0 ||
        (phil.state == State::kHungry && phil.missing_forks <= 0)) {
      consistent = false;
    } else {
      ++phil.version;
      bits |= kHasFork;   // forks always arrive clean
      bits &= ~kDirty;
      if (phil.state == State::kHungry) {
        SG_CHECK_GT(phil.missing_forks, 0);
        if (--phil.missing_forks == 0) {
          shard.cv.NotifyAll();
        }
      }
    }
  }
  if (!consistent) ReportViolation(from, to, "fork transfer");
}

StuckChain ChandyMisraTable::FindStuckChain() {
  struct Blocked {
    uint64_t version = 0;
    PhilosopherId next = -1;  ///< hungry holder keeping a fork it misses
    PhilosopherId end = -1;   ///< thinking holder keeping one
    uint64_t end_version = 0;
  };
  // Pass 1: the blocked philosophers and their missing forks, the latter
  // grouped by the shard of the holder.
  std::map<PhilosopherId, Blocked> blocked;
  std::vector<std::vector<std::pair<PhilosopherId, PhilosopherId>>> asks(
      shards_.size());
  for (auto& shard : shards_) {
    sy::MutexLock lock(&shard->mu);
    for (PhilosopherId p : shard->waiting) {
      const Philosopher& phil = shard->philosophers[p];
      blocked[p].version = phil.version;
      for (const auto& [q, bits] : phil.edges) {
        if ((bits & kHasFork) == 0) {
          asks[config_.worker_of(q)].emplace_back(p, q);
        }
      }
    }
  }
  // Pass 2: holder q keeps the fork p misses if it holds fork and request
  // token (nothing in flight) with the fork clean, and is hungry (it has
  // priority) or thinking (it will not eat to free it). A hungry q counts
  // only if pass 1 saw it at the same version.
  for (size_t w = 0; w < asks.size(); ++w) {
    if (asks[w].empty()) continue;
    sy::MutexLock lock(&shards_[w]->mu);
    for (const auto& [p, q] : asks[w]) {
      const Philosopher& holder = shards_[w]->philosophers[q];
      if ((holder.edges.at(p) & (kHasFork | kHasToken | kDirty)) !=
          (kHasFork | kHasToken)) {
        continue;
      }
      Blocked& from = blocked[p];
      if (holder.state == State::kThinking && from.end < 0) {
        from.end = q;
        from.end_version = holder.version;
      } else if (holder.state == State::kHungry && from.next < 0) {
        const auto it = blocked.find(q);
        if (it != blocked.end() && it->second.version == holder.version) {
          from.next = q;
        }
      }
    }
  }
  // Follow the chain from each blocked philosopher, lowest id first, to a
  // thinking holder or back onto itself.
  for (const auto& entry : blocked) {
    StuckChain chain;
    for (PhilosopherId p = entry.first; p >= 0; p = blocked[p].next) {
      auto& ids = chain.philosophers;
      const auto seen = std::find(ids.begin(), ids.end(), p);
      if (seen != ids.end()) {
        chain.versions.erase(chain.versions.begin(),
                             chain.versions.begin() + (seen - ids.begin()));
        ids.erase(ids.begin(), seen);
        chain.cycle = true;
        return chain;
      }
      const Blocked& node = blocked[p];
      ids.push_back(p);
      chain.versions.push_back(node.version);
      if (node.end >= 0) {
        ids.push_back(node.end);
        chain.versions.push_back(node.end_version);
        return chain;
      }
    }
  }
  return {};
}

void ChandyMisraTable::ReportViolation(PhilosopherId from, PhilosopherId to,
                                       const char* what) {
  const std::string reason =
      std::string(what) + " on edge " + std::to_string(from) + "->" +
      std::to_string(to) +
      " does not match the local fork state (control message lost?)";
  if (config_.on_protocol_violation) {
    config_.on_protocol_violation(config_.worker_of(to), reason);
    return;
  }
  SG_LOG(kFatal) << "fork protocol inconsistency: " << reason;
}

}  // namespace serigraph
