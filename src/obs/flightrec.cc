#include "obs/flightrec.h"

#include <errno.h>
#include <signal.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <thread>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "obs/introspect.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "obs/waitfor.h"

// Build provenance; the obs library gets real values from CMake, other
// consumers (none today) fall back to the placeholders.
#ifndef SERIGRAPH_BUILD_COMMIT
#define SERIGRAPH_BUILD_COMMIT "unknown"
#endif
#ifndef SERIGRAPH_BUILD_TYPE
#define SERIGRAPH_BUILD_TYPE "unspecified"
#endif
#ifndef SERIGRAPH_BUILD_SANITIZER
#define SERIGRAPH_BUILD_SANITIZER "none"
#endif

namespace serigraph {

BuildInfo GetBuildInfo() {
  return BuildInfo{SERIGRAPH_BUILD_COMMIT, SERIGRAPH_BUILD_TYPE,
                   SERIGRAPH_BUILD_SANITIZER};
}

// ---------------------------------------------------------------------------
// HealthState

const char* HealthLevelName(HealthLevel level) {
  switch (level) {
    case HealthLevel::kOk:
      return "ok";
    case HealthLevel::kDegraded:
      return "degraded";
    case HealthLevel::kUnhealthy:
      return "unhealthy";
  }
  return "unknown";
}

HealthState& HealthState::Get() {
  static HealthState* state = new HealthState();
  return *state;
}

void HealthState::SetReady(bool ready) {
  sy::MutexLock lock(&health_mu_);
  ready_ = ready;
}

bool HealthState::ready() const {
  sy::MutexLock lock(&health_mu_);
  return ready_;
}

void HealthState::Report(HealthLevel level, const std::string& component,
                         const std::string& reason) {
  sy::MutexLock lock(&health_mu_);
  components_[component] = {level, reason};
}

void HealthState::ClearComponent(const std::string& component) {
  sy::MutexLock lock(&health_mu_);
  components_.erase(component);
}

HealthLevel HealthState::level() const {
  sy::MutexLock lock(&health_mu_);
  HealthLevel worst = HealthLevel::kOk;
  for (const auto& [name, entry] : components_) {
    (void)name;
    if (static_cast<int>(entry.first) > static_cast<int>(worst)) {
      worst = entry.first;
    }
  }
  return worst;
}

std::string HealthState::ToJson() const {
  sy::MutexLock lock(&health_mu_);
  HealthLevel worst = HealthLevel::kOk;
  for (const auto& [name, entry] : components_) {
    (void)name;
    if (static_cast<int>(entry.first) > static_cast<int>(worst)) {
      worst = entry.first;
    }
  }
  JsonWriter w;
  w.BeginObject()
      .Key("status")
      .Value(HealthLevelName(worst))
      .Key("ready")
      .Value(ready_)
      .Key("components")
      .BeginObject();
  for (const auto& [name, entry] : components_) {
    w.Key(name)
        .BeginObject()
        .Key("level")
        .Value(HealthLevelName(entry.first))
        .Key("reason")
        .Value(entry.second)
        .EndObject();
  }
  w.EndObject().EndObject();
  return w.str();
}

void HealthState::ResetForTest() {
  sy::MutexLock lock(&health_mu_);
  ready_ = false;
  components_.clear();
}

// ---------------------------------------------------------------------------
// TelemetryHub

std::atomic<bool> TelemetryHub::serving_{false};

TelemetryHub& TelemetryHub::Get() {
  static TelemetryHub* hub = new TelemetryHub();
  return *hub;
}

void TelemetryHub::RegisterMetrics(MetricRegistry* registry) {
  sy::MutexLock lock(&hub_mu_);
  registry_ = registry;
}

void TelemetryHub::UnregisterMetrics(MetricRegistry* registry) {
  sy::MutexLock lock(&hub_mu_);
  if (registry_ != registry) return;
  frozen_ = registry_->Snapshot();
  registry_ = nullptr;
}

std::map<std::string, int64_t> TelemetryHub::MetricsSnapshot() const {
  sy::MutexLock lock(&hub_mu_);
  if (registry_ != nullptr) return registry_->Snapshot();
  return frozen_;
}

void TelemetryHub::SetFaultLogProvider(
    std::function<std::vector<std::string>()> provider) {
  sy::MutexLock lock(&hub_mu_);
  fault_provider_ = std::move(provider);
}

void TelemetryHub::ClearFaultLogProvider() {
  sy::MutexLock lock(&hub_mu_);
  fault_provider_ = nullptr;
}

std::vector<std::string> TelemetryHub::FaultLog() const {
  std::function<std::vector<std::string>()> provider;
  {
    sy::MutexLock lock(&hub_mu_);
    provider = fault_provider_;
  }
  if (!provider) return {};
  return provider();
}

void TelemetryHub::ResetForTest() {
  sy::MutexLock lock(&hub_mu_);
  registry_ = nullptr;
  frozen_.clear();
  fault_provider_ = nullptr;
  // mo: live telemetry; approximate by design
  run_.running.store(false, std::memory_order_relaxed);
  // mo: live telemetry; approximate by design
  run_.superstep.store(-1, std::memory_order_relaxed);
  // mo: live telemetry; approximate by design
  run_.workers.store(0, std::memory_order_relaxed);
  // mo: live telemetry; approximate by design
  run_.active_vertices.store(-1, std::memory_order_relaxed);
  // mo: live telemetry; approximate by design
  run_.recovery_attempts.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Status blocks

std::string BuildInfoJson() {
  const BuildInfo build = GetBuildInfo();
  JsonWriter w;
  w.BeginObject()
      .Key("commit")
      .Value(build.commit)
      .Key("build_type")
      .Value(build.build_type)
      .Key("sanitizer")
      .Value(build.sanitizer)
      .EndObject();
  return w.str();
}

std::string RunStatusJson() {
  TelemetryHub::RunStatus& run = TelemetryHub::Get().run();
  JsonWriter w;
  w.BeginObject()
      .Key("running")  // mo: live telemetry; approximate by design
      .Value(run.running.load(std::memory_order_relaxed))
      .Key("superstep")  // mo: live telemetry; approximate by design
      .Value(run.superstep.load(std::memory_order_relaxed))
      .Key("workers")  // mo: live telemetry; approximate by design
      .Value(run.workers.load(std::memory_order_relaxed))
      .Key("active_vertices")  // mo: live telemetry; approximate by design
      .Value(run.active_vertices.load(std::memory_order_relaxed))
      .Key("recovery_attempts")  // mo: live telemetry; approximate by design
      .Value(run.recovery_attempts.load(std::memory_order_relaxed))
      .EndObject();
  return w.str();
}

std::string BeaconsJson(int num_workers) {
  Introspector& in = Introspector::Get();
  JsonWriter w;
  w.BeginArray();
  for (int i = 0; i < num_workers; ++i) {
    const BeaconSnapshot b = in.ReadBeacon(i);
    w.BeginObject()
        .Key("worker")
        .Value(i)
        .Key("phase")
        .Value(WorkerPhaseName(b.phase))
        .Key("superstep")
        .Value(b.superstep)
        .Key("phase_since_us")
        .Value(b.phase_since_us)
        .Key("progress_epoch")
        .Value(static_cast<int64_t>(b.progress_epoch))
        .Key("acquiring")
        .Value(b.acquiring)
        .Key("token_holder")
        .Value(b.token_holder)
        .Key("inbox_depth")
        .Value(b.inbox_depth)
        .EndObject();
  }
  w.EndArray();
  return w.str();
}

// ---------------------------------------------------------------------------
// IncidentManager

namespace {

// Automatic dumps at most every second and at most 32 per process: a
// crash/recovery loop must not fill the disk with identical bundles.
constexpr int64_t kMinAutoDumpSpacingUs = 1000 * 1000;
constexpr size_t kMaxIncidentsPerProcess = 32;

std::string SanitizeBundleComponent(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out.empty() ? std::string("incident") : out;
}

// mkdir -p: creates every missing component, tolerates existing ones.
Status MakeDirs(const std::string& path) {
  if (path.empty()) return Status::OK();
  std::string partial;
  size_t pos = 0;
  while (pos <= path.size()) {
    const size_t slash = path.find('/', pos);
    partial = slash == std::string::npos ? path : path.substr(0, slash);
    pos = slash == std::string::npos ? path.size() + 1 : slash + 1;
    if (partial.empty()) continue;
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IoError("mkdir " + partial + ": " +
                             std::string(strerror(errno)));
    }
  }
  return Status::OK();
}

std::string WaitForStateJson() {
  JsonWriter w;
  w.BeginObject();
  if (Introspector::enabled()) {
    Introspector& in = Introspector::Get();
    const WaitForGraph graph = in.BuildWaitForGraph();
    const std::vector<int> cycle = FindWorkerCycle(graph);
    w.Key("introspector").Value(true);
    w.Key("num_workers").Value(graph.num_workers);
    w.Key("edges").Raw(WaitForEdgesJson(graph));
    w.Key("cycle").BeginArray();
    for (int worker : cycle) w.Value(worker);
    w.EndArray();
    w.Key("summary").Value(WaitForGraphSummary(graph));
    w.Key("beacons").Raw(BeaconsJson(graph.num_workers));
  } else {
    w.Key("introspector").Value(false);
  }
  w.EndObject();
  return w.str();
}

std::string EnvironmentJson() {
  JsonWriter w;
  w.BeginObject()
      .Key("pid")
      .Value(static_cast<int64_t>(::getpid()))
      .Key("uptime_us")
      .Value(Tracer::NowMicros())
      .Key("build")
      .Raw(BuildInfoJson())
      .Key("hardware_threads")
      .Value(static_cast<int64_t>(std::thread::hardware_concurrency()));
  struct utsname uts;
  if (::uname(&uts) == 0) {
    w.Key("uname")
        .BeginObject()
        .Key("sysname")
        .Value(uts.sysname)
        .Key("release")
        .Value(uts.release)
        .Key("machine")
        .Value(uts.machine)
        .EndObject();
  }
  w.Key("health").Raw(HealthState::Get().ToJson());
  w.Key("run").Raw(RunStatusJson());
  w.EndObject();
  return w.str();
}

std::string FaultEventsJson() {
  const std::vector<std::string> events = TelemetryHub::Get().FaultLog();
  JsonWriter w;
  w.BeginObject().Key("events").BeginArray();
  for (const std::string& e : events) w.Value(e);
  w.EndArray().EndObject();
  return w.str();
}

}  // namespace

IncidentManager& IncidentManager::Get() {
  static IncidentManager* manager = new IncidentManager();
  return *manager;
}

void IncidentManager::SetIncidentDir(const std::string& dir) {
  sy::MutexLock lock(&incident_mu_);
  dir_ = dir;
}

std::string IncidentManager::incident_dir() const {
  sy::MutexLock lock(&incident_mu_);
  return dir_;
}

StatusOr<std::string> IncidentManager::Dump(const std::string& trigger,
                                            const std::string& reason,
                                            bool manual) {
  sy::MutexLock lock(&incident_mu_);
  if (dir_.empty()) return std::string();
  const int64_t now_us = Tracer::NowMicros();
  if (records_.size() >= kMaxIncidentsPerProcess) return std::string();
  if (!manual && last_dump_us_ >= 0 &&
      now_us - last_dump_us_ < kMinAutoDumpSpacingUs) {
    return std::string();
  }
  const int seq = next_seq_++;
  const std::string bundle = dir_ + "/incident-" + std::to_string(seq) + "-" +
                             SanitizeBundleComponent(trigger);
  Status status = MakeDirs(bundle);
  if (!status.ok()) return status;

  const char* files[] = {"trace.json", "waitfor.json", "metrics.prom",
                         "faults.json", "env.json"};
  status = WriteTextFile(bundle + "/trace.json",
                         Tracer::Get().ToChromeTraceJson(Tracer::kTailEvents));
  if (status.ok()) {
    status = WriteTextFile(bundle + "/waitfor.json", WaitForStateJson());
  }
  if (status.ok()) {
    status = WriteTextFile(
        bundle + "/metrics.prom",
        MetricsToPrometheusText(TelemetryHub::Get().MetricsSnapshot()));
  }
  if (status.ok()) {
    status = WriteTextFile(bundle + "/faults.json", FaultEventsJson());
  }
  if (status.ok()) {
    status = WriteTextFile(bundle + "/env.json", EnvironmentJson());
  }

  JsonWriter manifest;
  manifest.BeginObject()
      .Key("seq")
      .Value(seq)
      .Key("trigger")
      .Value(trigger)
      .Key("reason")
      .Value(reason)
      .Key("manual")
      .Value(manual)
      .Key("ts_us")
      .Value(now_us)
      .Key("complete")
      .Value(status.ok())
      .Key("files")
      .BeginArray();
  for (const char* f : files) manifest.Value(f);
  manifest.EndArray().EndObject();
  const Status manifest_status =
      WriteTextFile(bundle + "/MANIFEST.json", manifest.str());
  if (status.ok()) status = manifest_status;
  if (!status.ok()) return status;

  last_dump_us_ = now_us;
  IncidentRecord record;
  record.dir = bundle;
  record.trigger = trigger;
  record.reason = reason;
  record.ts_us = now_us;
  records_.push_back(record);
  return bundle;
}

std::vector<IncidentRecord> IncidentManager::List() const {
  sy::MutexLock lock(&incident_mu_);
  return records_;
}

std::string IncidentManager::ListJson() const {
  const std::vector<IncidentRecord> records = List();
  JsonWriter w;
  w.BeginObject().Key("incidents").BeginArray();
  for (const IncidentRecord& r : records) {
    w.BeginObject()
        .Key("dir")
        .Value(r.dir)
        .Key("trigger")
        .Value(r.trigger)
        .Key("reason")
        .Value(r.reason)
        .Key("ts_us")
        .Value(r.ts_us)
        .EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

void IncidentManager::ResetForTest() {
  sy::MutexLock lock(&incident_mu_);
  dir_.clear();
  next_seq_ = 0;
  last_dump_us_ = -1;
  records_.clear();
}

void TriggerIncidentDump(const std::string& trigger, const std::string& reason,
                         HealthLevel level) {
  if (level != HealthLevel::kOk) {
    HealthState::Get().Report(level, trigger, reason);
  }
  Tracer::RecordInstant("incident.trigger");
  const StatusOr<std::string> bundle =
      IncidentManager::Get().Dump(trigger, reason);
  if (!bundle.ok()) {
    SG_LOG(kWarning) << "incident dump failed (" << trigger
                     << "): " << bundle.status();
  } else if (!bundle.value().empty()) {
    SG_LOG(kWarning) << "incident bundle written: " << bundle.value() << " ("
                     << trigger << ": " << reason << ")";
  }
}

// ---------------------------------------------------------------------------
// Fatal-signal handling

namespace {

std::atomic<bool> g_fatal_handlers_installed{false};
std::atomic<bool> g_fatal_dump_started{false};
std::atomic<bool> g_fatal_dump_done{false};
/// Write end of the pipe the dumper thread blocks on.
std::atomic<int> g_fatal_wake_fd{-1};

// A dying thread waits at most this long (in 10 ms slices) for its
// bundle: the dumper may block on a lock the dying thread holds.
constexpr int kFatalDumpWaitSlices = 500;

const char* FatalSignalName(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "sigsegv";
    case SIGABRT:
      return "sigabrt";
    case SIGBUS:
      return "sigbus";
    case SIGFPE:
      return "sigfpe";
    default:
      return "signal";
  }
}

// Runs on its own thread, outside signal context, so the dump may
// allocate and take locks.
void FatalDumpLoop(int wake_read_fd) {
  int sig = 0;
  ssize_t n;
  do {
    n = ::read(wake_read_fd, &sig, sizeof(sig));
  } while (n < 0 && errno == EINTR);
  if (n != sizeof(sig)) return;
  TriggerIncidentDump(std::string("fatal-") + FatalSignalName(sig),
                      "fatal signal received", HealthLevel::kUnhealthy);
  g_fatal_dump_done.store(true, std::memory_order_release);
}

void FatalSignalHandler(int sig) {
  // Async-signal-safe calls only. Restore the default disposition first:
  // a second fault of this kind terminates at once instead of recursing.
  struct sigaction dfl = {};
  dfl.sa_handler = SIG_DFL;
  ::sigaction(sig, &dfl, nullptr);
  if (!g_fatal_dump_started.exchange(true)) {
    const int fd = g_fatal_wake_fd.load(std::memory_order_acquire);
    if (::write(fd, &sig, sizeof(sig)) != sizeof(sig)) {
      g_fatal_dump_done.store(true, std::memory_order_release);
    }
  }
  const struct timespec slice = {0, 10 * 1000 * 1000};
  for (int i = 0; i < kFatalDumpWaitSlices &&
                  !g_fatal_dump_done.load(std::memory_order_acquire);
       ++i) {
    ::nanosleep(&slice, nullptr);
  }
  ::raise(sig);
}

}  // namespace

void InstallFatalSignalHandlers() {
  if (g_fatal_handlers_installed.exchange(true)) return;
  int fds[2];
  if (::pipe(fds) != 0) {
    SG_LOG(kWarning) << "fatal-signal bundles disabled: pipe: "
                     << strerror(errno);
    return;
  }
  std::thread(FatalDumpLoop, fds[0]).detach();
  g_fatal_wake_fd.store(fds[1], std::memory_order_release);
  struct sigaction action = {};
  action.sa_handler = FatalSignalHandler;
  sigemptyset(&action.sa_mask);
  for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE}) {
    ::sigaction(sig, &action, nullptr);
  }
}

}  // namespace serigraph
