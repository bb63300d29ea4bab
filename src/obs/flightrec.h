#ifndef SERIGRAPH_OBS_FLIGHTREC_H_
#define SERIGRAPH_OBS_FLIGHTREC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace serigraph {

class MetricRegistry;

/// Build provenance stamped into the binary at configure time
/// (CMake passes SERIGRAPH_BUILD_* compile definitions to the obs
/// library). Served as the `serigraph_build_info` gauge labels and
/// written into every incident bundle's environment fingerprint.
struct BuildInfo {
  const char* commit;     ///< short git commit hash, or "unknown"
  const char* build_type; ///< CMAKE_BUILD_TYPE, or "unspecified"
  const char* sanitizer;  ///< SERIGRAPH_SANITIZE value, or "none"
};
BuildInfo GetBuildInfo();

/// Process-wide health, fed by the watchdog (deadlock/stall
/// confirmation), the supervisor (worker failures), and the engine
/// (recovery attempts, aborts). `/healthz` renders it; level is the
/// max over currently-reported components, so clearing a component
/// recovers the aggregate.
enum class HealthLevel : int { kOk = 0, kDegraded = 1, kUnhealthy = 2 };

const char* HealthLevelName(HealthLevel level);

class HealthState {
 public:
  static HealthState& Get();

  /// Readiness: flipped true once an engine run is accepting work
  /// (first superstep entered), false when no run is live.
  void SetReady(bool ready);
  bool ready() const;

  /// Report a component's condition; a later report for the same
  /// component replaces the earlier one.
  void Report(HealthLevel level, const std::string& component,
              const std::string& reason);
  /// Remove a component's report (e.g. recovery succeeded).
  void ClearComponent(const std::string& component);

  /// Aggregate level: worst currently-reported component.
  HealthLevel level() const;

  /// {"status":"ok|degraded|unhealthy","ready":bool,"components":{...}}
  std::string ToJson() const;

  void ResetForTest();

 private:
  HealthState() = default;
  /// Leaf lock.
  mutable sy::Mutex health_mu_;
  bool ready_ SY_GUARDED_BY(health_mu_) = false;
  std::map<std::string, std::pair<HealthLevel, std::string>> components_
      SY_GUARDED_BY(health_mu_);
};

/// Rendezvous between the engine (which owns the MetricRegistry and the
/// run state) and the HTTP/incident plane (which reads them from other
/// threads at arbitrary times). The engine registers its registry for
/// the duration of Run(); on unregister the final snapshot is frozen so
/// post-run scrapes still see the last state.
class TelemetryHub {
 public:
  static TelemetryHub& Get();

  /// True while an ObsServer is live; the engine uses this to keep the
  /// per-superstep arena/RSS gauges warm even when perf sampling is off.
  // mo: on/off gate; stale reads tolerated
  static bool serving() { return serving_.load(std::memory_order_relaxed); }
  static void SetServing(bool on) {
    // mo: on/off gate; stale reads tolerated
    serving_.store(on, std::memory_order_relaxed);
  }

  /// Engine Run() entry/exit. Unregister freezes a final snapshot.
  void RegisterMetrics(MetricRegistry* registry);
  void UnregisterMetrics(MetricRegistry* registry);

  /// Live snapshot when a registry is registered, else the last frozen
  /// snapshot (empty before any run).
  std::map<std::string, int64_t> MetricsSnapshot() const;

  /// Coarse live run state, updated with relaxed stores from the
  /// engine's serial section; readable from any thread.
  struct RunStatus {
    std::atomic<bool> running{false};
    std::atomic<int> superstep{-1};
    std::atomic<int> workers{0};
    std::atomic<int64_t> active_vertices{-1};
    std::atomic<int> recovery_attempts{0};
  };
  RunStatus& run() { return run_; }

  /// Fault-event feed for incident bundles: the engine registers a
  /// provider over the armed FaultInjector's fired log (the obs layer
  /// does not link the fault layer).
  void SetFaultLogProvider(std::function<std::vector<std::string>()> provider);
  void ClearFaultLogProvider();
  std::vector<std::string> FaultLog() const;

  void ResetForTest();

 private:
  TelemetryHub() = default;
  /// May acquire common.metrics (registry snapshot) while held.
  mutable sy::Mutex hub_mu_;
  MetricRegistry* registry_ SY_GUARDED_BY(hub_mu_) = nullptr;
  std::map<std::string, int64_t> frozen_ SY_GUARDED_BY(hub_mu_);
  std::function<std::vector<std::string>()> fault_provider_
      SY_GUARDED_BY(hub_mu_);
  RunStatus run_;
  static std::atomic<bool> serving_;
};

/// Status blocks rendered the same way by /statusz and incident bundles,
/// each as a JSON value for JsonWriter::Raw.
/// {"commit":...,"build_type":...,"sanitizer":...}
std::string BuildInfoJson();
/// TelemetryHub::RunStatus: {"running":...,"superstep":...,"workers":...,
/// "active_vertices":...,"recovery_attempts":...}
std::string RunStatusJson();
/// One object per worker's introspection beacon (phase, superstep,
/// progress epoch, acquisition, token, inbox depth), as an array.
std::string BeaconsJson(int num_workers);

/// One incident bundle already written to disk.
struct IncidentRecord {
  std::string dir;      ///< bundle directory (absolute or as configured)
  std::string trigger;  ///< "watchdog-deadlock", "fatal-signal", ...
  std::string reason;   ///< human-readable detail
  int64_t ts_us = 0;    ///< µs since process start
};

/// Writes and indexes incident bundles. A bundle is a directory
/// `<incident_dir>/incident-<seq>-<trigger>/` containing:
///   MANIFEST.json  trigger, reason, timestamps, file list
///   trace.json     the Tracer's newest kTailEvents events per thread
///                  (Chrome trace format)
///   waitfor.json   wait-for graph + cycle + beacons (introspector on)
///   metrics.prom   Prometheus exposition of the current metrics
///   faults.json    fault-injector events fired so far
///   env.json       environment fingerprint (pid, build, uname, nproc)
///
/// Automatic triggers are rate-limited (min spacing + per-process cap)
/// so a crash loop cannot fill the disk; explicit /incidentz triggers
/// bypass the spacing but not the cap.
class IncidentManager {
 public:
  static IncidentManager& Get();

  /// Enables automatic + manual dumps into `dir` (created on demand).
  /// Empty string disables dumping (the default).
  void SetIncidentDir(const std::string& dir);
  std::string incident_dir() const;

  /// Writes a bundle now. Returns the bundle directory; an empty path
  /// means dumping is disabled or rate-limited (not an error). `manual`
  /// marks operator-requested dumps, which skip the spacing limit.
  StatusOr<std::string> Dump(const std::string& trigger,
                             const std::string& reason, bool manual = false);

  std::vector<IncidentRecord> List() const;
  /// JSON array of IncidentRecord for /incidentz.
  std::string ListJson() const;

  void ResetForTest();

 private:
  IncidentManager() = default;
  /// Serializes bundle writes; file I/O happens while held (dumps are
  /// rare and must not interleave). Acquires obs.hub and common.metrics
  /// via TelemetryHub::MetricsSnapshot() in callees.
  mutable sy::Mutex incident_mu_;
  std::string dir_ SY_GUARDED_BY(incident_mu_);
  int next_seq_ SY_GUARDED_BY(incident_mu_) = 0;
  int64_t last_dump_us_ SY_GUARDED_BY(incident_mu_) = -1;
  std::vector<IncidentRecord> records_ SY_GUARDED_BY(incident_mu_);
};

/// Convenience used by the watchdog, supervisor, engine, and CLI:
/// flips health (unless `level` is kOk), records a trace instant, and
/// writes an incident bundle if an incident dir is
/// configured. Never throws, never fails the caller.
void TriggerIncidentDump(const std::string& trigger, const std::string& reason,
                         HealthLevel level = HealthLevel::kOk);

/// Installs SIGSEGV/SIGABRT/SIGBUS/SIGFPE handlers that have one incident
/// bundle written and then re-raise with the default disposition. The
/// handler itself only makes async-signal-safe calls: it wakes a dumper
/// thread (started here) through a pipe and waits up to about 5 s for it,
/// since the dump allocates and takes locks the dying thread may hold.
/// Idempotent.
void InstallFatalSignalHandlers();

}  // namespace serigraph

#endif  // SERIGRAPH_OBS_FLIGHTREC_H_
