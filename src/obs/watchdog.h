#ifndef SERIGRAPH_OBS_WATCHDOG_H_
#define SERIGRAPH_OBS_WATCHDOG_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/introspect.h"
#include "obs/waitfor.h"

namespace serigraph {

struct WatchdogOptions {
  /// Sampling period: each tick judges the rules and appends one JSONL
  /// snapshot (if jsonl_path).
  int period_ms = 25;
  /// Fault runs: a runnable worker without progress this long is hung.
  int64_t heartbeat_timeout_ms = 2000;
  /// No worker progressed this long while one waits: a stall.
  int64_t stall_ms = 5000;
  /// Outside fault runs, turn a verdict into Introspector::RequestAbort
  /// so the run fails cleanly instead of hanging.
  bool abort_on_stall = false;
  /// JSONL event-log destination; empty disables streaming.
  std::string jsonl_path;
};

/// End-of-run digest of what the watchdog saw, merged into the run report.
struct WatchdogSummary {
  int64_t snapshots = 0;
  int64_t stalls_flagged = 0;
  int64_t deadlocks_detected = 0;
  /// Human-readable verdicts ("stall: ..." for hung workers and stalls,
  /// "deadlock: ..."), in detection order.
  std::vector<std::string> incidents;
  std::vector<ContentionEntry> top_contention;
  std::vector<EdgeContentionEntry> top_edges;
};

/// The run monitor: one sampler thread over the Introspector's beacons and
/// fork probe, for a whole engine run across recovery attempts. Each
/// periodic sample judges three rules:
///
///   * deadlock: the same stuck fork chain (StuckChain), no member
///     changed, on two consecutive samples — a protocol bug, however
///     slowly the workers are scheduled;
///   * hung (fault runs only): a live, runnable worker made no progress
///     for heartbeat_timeout_ms (reported as a stall);
///   * stall: no worker progressed for stall_ms while one waits.
///
/// Nothing is confirmed while an abort is pending (abandoned acquires
/// leave clean forks at thinking philosophers); the clocks restart for
/// the next attempt. A verdict is logged, counted, streamed, and turns
/// /healthz unhealthy with an incident bundle, then fails the attempt
/// through `on_failure` (fault runs) or aborts under abort_on_stall.
/// Stop() takes a final sample (no rules judged), so even sub-period
/// runs produce a snapshot.
class Watchdog {
 public:
  /// Fails the current attempt with the verdict as its reason.
  using FailureFn = std::function<void(const std::string& reason)>;

  /// A non-null `on_failure` marks a fault run: the hung rule is on and
  /// every verdict goes to it instead of the abort_on_stall policy.
  explicit Watchdog(WatchdogOptions options, FailureFn on_failure = nullptr)
      : options_(std::move(options)), on_failure_(std::move(on_failure)) {}
  ~Watchdog() { Stop(); }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Starts the sampler thread. The Introspector must already be
  /// Configure()d and Enable()d. No-op if already running.
  void Start();

  /// Stops the sampler, takes the final sample, and freezes summary().
  /// Idempotent.
  void Stop();

  /// Returns once no sample is in progress, so a verdict reached by a
  /// running sample has been acted on. The engine calls it between
  /// attempts, after it stopped accepting failures.
  void Quiesce();

  /// Valid after Stop().
  const WatchdogSummary& summary() const { return summary_; }

 private:
  /// Rows kept in the end-of-run contention tables.
  static constexpr int kTopK = 10;

  /// Sampler-thread view of one worker's progress.
  struct WorkerClock {
    uint64_t progress = 0;
    int64_t since_us = 0;
  };

  void Loop();
  /// One sampling tick; `final_sample` marks the Stop() sample in the log.
  void Sample(bool final_sample);
  /// Applies the three rules to one sample.
  void Judge(const std::vector<BeaconSnapshot>& beacons,
             const WaitForGraph& graph, const std::vector<int>& cycle,
             int64_t t_us);
  /// Restarts every clock at `t_us` (start, and while an abort is pending).
  void Rearm(const std::vector<BeaconSnapshot>& beacons, int64_t t_us);
  /// Reports one verdict ("stall" or "deadlock") and acts on it
  /// (on_failure_ or abort_on_stall).
  void Confirm(const std::string& type, const std::string& detail,
               const WaitForGraph& graph, int64_t t_us);
  void WriteSnapshotJson(const std::vector<BeaconSnapshot>& beacons,
                         const WaitForGraph& graph,
                         const std::vector<int>& cycle, int64_t t_us,
                         bool final_sample);
  void WriteIncidentJson(const std::string& type, const std::string& detail,
                         const WaitForGraph& graph, int64_t t_us);

  WatchdogOptions options_;
  FailureFn on_failure_;

  std::thread thread_;  ///< joinable while running
  sy::Mutex stop_mu_;
  sy::CondVar stop_cv_;
  bool stop_requested_ SY_GUARDED_BY(stop_mu_) = false;
  bool sampling_ SY_GUARDED_BY(stop_mu_) = false;

  std::ofstream jsonl_;

  // Rule state (sampler thread only).
  std::vector<WorkerClock> clocks_;
  bool stall_active_ = false;
  StuckChain prev_chain_;
  bool deadlock_reported_ = false;

  WatchdogSummary summary_;
};

}  // namespace serigraph

#endif  // SERIGRAPH_OBS_WATCHDOG_H_
