#include "fault/supervisor.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "obs/flightrec.h"
#include "obs/trace.h"

namespace serigraph {

Supervisor::Supervisor(int num_workers, SupervisorOptions options,
                       FailureCallback on_failure)
    : options_(options), on_failure_(std::move(on_failure)) {
  cells_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    cells_.push_back(std::make_unique<WorkerCell>());
  }
}

Supervisor::~Supervisor() { Stop(); }

int64_t Supervisor::NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Supervisor::Start() {
  const int64_t now = NowMs();
  for (auto& cell : cells_) {
    // mo: heartbeat read; staleness tolerated
    cell->last_seen_progress = cell->progress.load(std::memory_order_relaxed);
    cell->last_change_ms = now;
  }
  thread_ = std::thread([this] { MonitorLoop(); });
}

void Supervisor::Stop() {
  stopped_.store(true, std::memory_order_release);
  {
    sy::MutexLock lock(&mu_);
    stop_requested_ = true;
    cv_.NotifyAll();
  }
  if (thread_.joinable()) thread_.join();
}

FailureReport Supervisor::failure() const {
  sy::MutexLock lock(&mu_);
  return report_;
}

void Supervisor::Fail(int worker, std::string reason) {
  if (stopped_.load(std::memory_order_acquire)) return;
  if (failed_.exchange(true, std::memory_order_acq_rel)) return;
  FailureReport report{worker, std::move(reason)};
  {
    sy::MutexLock lock(&mu_);
    report_ = report;
  }
  SG_LOG(kWarning) << "supervisor: " << report.reason;
  // First failure wins: mark the process degraded (recovery may still
  // succeed and clear this) and capture an incident bundle while the
  // pre-failure flight-recorder tail is still warm.
  Tracer::RecordInstant("supervisor.failure");
  TriggerIncidentDump("supervisor", report.reason, HealthLevel::kDegraded);
  if (on_failure_) on_failure_(report);
}

void Supervisor::ReportDeath(int worker, const std::string& reason) {
  if (worker >= 0 && worker < static_cast<int>(cells_.size())) {
    cells_[static_cast<size_t>(worker)]->dead.store(
        true, std::memory_order_release);
  }
  Fail(worker, "worker " + std::to_string(worker) + " died: " + reason);
}

void Supervisor::ReportLoss(int src, int dst, uint64_t expected,
                            uint64_t got) {
  Fail(src, "message loss on link " + std::to_string(src) + "->" +
                std::to_string(dst) + " (expected seq " +
                std::to_string(expected) + ", got " + std::to_string(got) +
                ")");
}

void Supervisor::ReportProtocolViolation(int worker,
                                         const std::string& reason) {
  Fail(worker, "protocol violation on worker " + std::to_string(worker) +
                   ": " + reason);
}

void Supervisor::MonitorLoop() {
  for (;;) {
    {
      sy::MutexLock lock(&mu_);
      if (stop_requested_) return;
      cv_.WaitFor(mu_, std::chrono::milliseconds(options_.period_ms));
      if (stop_requested_) return;
    }
    if (failed_.load(std::memory_order_acquire)) continue;

    const int64_t now = NowMs();
    int live = 0;
    int stalest_worker = -1;
    int64_t stalest_ms = -1;
    bool all_stalled = true;
    for (size_t w = 0; w < cells_.size(); ++w) {
      WorkerCell& cell = *cells_[w];
      if (cell.dead.load(std::memory_order_acquire)) continue;
      ++live;
      // mo: heartbeat read; staleness tolerated
      const uint64_t progress = cell.progress.load(std::memory_order_relaxed);
      if (progress != cell.last_seen_progress) {
        cell.last_seen_progress = progress;
        cell.last_change_ms = now;
      }
      const int64_t idle = now - cell.last_change_ms;
      // mo: heartbeat read; staleness tolerated
      const bool blocked = cell.blocked.load(std::memory_order_relaxed) > 0;
      if (!blocked && idle > options_.heartbeat_timeout_ms) {
        Fail(static_cast<int>(w),
             "worker " + std::to_string(w) + " unresponsive for " +
                 std::to_string(idle) + " ms (runnable, no progress)");
        break;
      }
      if (idle <= options_.global_stall_timeout_ms) all_stalled = false;
      if (idle > stalest_ms) {
        stalest_ms = idle;
        stalest_worker = static_cast<int>(w);
      }
    }
    if (!failed_.load(std::memory_order_acquire) && live > 0 && all_stalled) {
      Fail(stalest_worker,
           "global stall: no worker made progress for " +
               std::to_string(stalest_ms) + " ms (stalest: worker " +
               std::to_string(stalest_worker) + ")");
    }
  }
}

}  // namespace serigraph
