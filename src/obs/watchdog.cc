#include "obs/watchdog.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "obs/flightrec.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace serigraph {

namespace {

std::vector<BeaconSnapshot> ReadBeacons() {
  Introspector& in = Introspector::Get();
  std::vector<BeaconSnapshot> beacons;
  beacons.reserve(in.num_workers());
  for (int w = 0; w < in.num_workers(); ++w) {
    beacons.push_back(in.ReadBeacon(w));
  }
  return beacons;
}

bool Waits(const BeaconSnapshot& b) {
  return b.blocked > 0 || b.phase == WorkerPhase::kForkWait ||
         b.phase == WorkerPhase::kFlushWait ||
         b.phase == WorkerPhase::kBarrierWait;
}

}  // namespace

void Watchdog::Start() {
  if (thread_.joinable()) return;
  if (!options_.jsonl_path.empty()) {
    jsonl_.open(options_.jsonl_path, std::ios::out | std::ios::trunc);
    if (!jsonl_.is_open()) {
      SG_LOG(kWarning) << "watchdog: cannot open JSONL log "
                       << options_.jsonl_path << "; streaming disabled";
    }
  }
  summary_ = WatchdogSummary();
  Rearm(ReadBeacons(), Tracer::NowMicros());
  {
    sy::MutexLock lock(&stop_mu_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { Loop(); });
}

void Watchdog::Stop() {
  if (!thread_.joinable()) return;
  {
    sy::MutexLock lock(&stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.NotifyAll();
  thread_.join();
  // The final sample guarantees >= 1 snapshot even for runs shorter than
  // one period, and freezes the contention tables into the summary.
  Sample(/*final_sample=*/true);
  Introspector& in = Introspector::Get();
  summary_.top_contention = in.ContentionTopK(kTopK);
  summary_.top_edges = in.EdgeContentionTopK(kTopK);
  if (jsonl_.is_open()) jsonl_.close();
}

void Watchdog::Loop() {
  for (;;) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.period_ms);
    {
      sy::MutexLock lock(&stop_mu_);
      while (!stop_requested_ &&
             std::chrono::steady_clock::now() < deadline) {
        stop_cv_.WaitUntil(stop_mu_, deadline);
      }
      if (stop_requested_) return;
      sampling_ = true;
    }
    // Sample() runs with no watchdog lock held: its probes take engine,
    // transport and fork-table locks (docs/LOCK_ORDER.md, obs.probe).
    Sample(/*final_sample=*/false);
    {
      sy::MutexLock lock(&stop_mu_);
      sampling_ = false;
    }
    stop_cv_.NotifyAll();
  }
}

void Watchdog::Quiesce() {
  sy::MutexLock lock(&stop_mu_);
  while (sampling_) stop_cv_.Wait(stop_mu_);
}

void Watchdog::Sample(bool final_sample) {
  const int64_t t_us = Tracer::NowMicros();
  const std::vector<BeaconSnapshot> beacons = ReadBeacons();
  const WaitForGraph graph = Introspector::Get().BuildWaitForGraph();
  const std::vector<int> cycle = FindWorkerCycle(graph);
  // The Stop() sample only records: the run is over, nothing to judge.
  if (!final_sample) Judge(beacons, graph, cycle, t_us);
  summary_.snapshots += 1;
  WriteSnapshotJson(beacons, graph, cycle, t_us, final_sample);
}

void Watchdog::Rearm(const std::vector<BeaconSnapshot>& beacons,
                     int64_t t_us) {
  clocks_.clear();
  for (const BeaconSnapshot& b : beacons) {
    clocks_.push_back({b.progress_epoch, t_us});
  }
  stall_active_ = false;
  prev_chain_ = StuckChain{};
  deadlock_reported_ = false;
}

void Watchdog::Judge(const std::vector<BeaconSnapshot>& beacons,
                     const WaitForGraph& graph, const std::vector<int>& cycle,
                     int64_t t_us) {
  Introspector& in = Introspector::Get();
  if (in.abort_requested()) {
    Rearm(beacons, t_us);
    return;
  }
  int64_t progress_us = 0;  // latest progress of any worker
  int waiting = -1;         // first live worker in a wait
  int hung = -1;            // first live, runnable worker silent too long
  for (size_t w = 0; w < beacons.size(); ++w) {
    const BeaconSnapshot& b = beacons[w];
    WorkerClock& clock = clocks_[w];
    if (b.progress_epoch != clock.progress) {
      clock = {b.progress_epoch, t_us};
      stall_active_ = false;  // progress resumed: re-arm the stall rule
    }
    progress_us = std::max(progress_us, clock.since_us);
    if (b.dead) continue;
    if (waiting < 0 && Waits(b)) waiting = static_cast<int>(w);
    if (hung < 0 && b.blocked == 0 &&
        t_us - clock.since_us > options_.heartbeat_timeout_ms * 1000) {
      hung = static_cast<int>(w);
    }
  }

  // Deadlock: the same stuck fork chain, no member changed, on two
  // consecutive samples. The worker-level cycle is only description.
  StuckChain chain = in.ProbeForks();
  const bool confirmed =
      !chain.empty() && chain == prev_chain_ && !deadlock_reported_;
  deadlock_reported_ = !chain.empty() && (deadlock_reported_ || confirmed);
  prev_chain_ = std::move(chain);
  if (confirmed) {
    // "fork chain vertex 1 -> vertex 2 -> vertex 3 (thinking on a clean
    // fork)", or a chain that leads back to its first member.
    std::string detail = "fork chain";
    const char* sep = " ";
    for (int64_t p : prev_chain_.philosophers) {
      detail += sep + in.resource_kind() + " " + std::to_string(p);
      sep = " -> ";
    }
    detail += prev_chain_.cycle ? " -> (back to the first: a cycle)"
                                : " (thinking on a clean fork)";
    detail += " unchanged across two samples";
    if (!cycle.empty()) {
      detail += "; worker cycle";
      for (int w : cycle) detail += " w" + std::to_string(w);
    }
    Confirm("deadlock", detail + "; " + WaitForGraphSummary(graph), graph,
            t_us);
    return;
  }

  // Hung (fault runs only): a runnable worker silent past the heartbeat.
  if (on_failure_ != nullptr && hung >= 0) {
    Confirm("stall",
            "worker w" + std::to_string(hung) + " unresponsive for " +
                std::to_string((t_us - clocks_[hung].since_us) / 1000) +
                " ms (runnable, no progress)",
            graph, t_us);
    return;
  }

  // Stall: no worker progressed for stall_ms while some worker waits.
  const int64_t frozen_ms = (t_us - progress_us) / 1000;
  if (!stall_active_ && waiting >= 0 && frozen_ms >= options_.stall_ms) {
    stall_active_ = true;
    const BeaconSnapshot& b = beacons[waiting];
    Confirm("stall",
            "worker w" + std::to_string(waiting) + " blocked in " +
                WorkerPhaseName(b.phase) + " for " +
                std::to_string((t_us - b.phase_since_us) / 1000) +
                "ms with no global progress for " + std::to_string(frozen_ms) +
                "ms; " + WaitForGraphSummary(graph),
            graph, t_us);
  }
}

void Watchdog::Confirm(const std::string& type, const std::string& detail,
                       const WaitForGraph& graph, int64_t t_us) {
  if (type == "deadlock") {
    summary_.deadlocks_detected += 1;
    SG_LOG(kError) << "watchdog: DEADLOCK confirmed (Chandy-Misra guarantees "
                      "deadlock-freedom; this is a protocol bug): "
                   << detail;
  } else {
    summary_.stalls_flagged += 1;
    SG_LOG(kWarning) << "watchdog: stall flagged: " << detail;
  }
  summary_.incidents.push_back(type + ": " + detail);
  WriteIncidentJson(type, detail, graph, t_us);
  // A verdict is the canonical incident: flip /healthz unhealthy and
  // write a flight-recorder bundle before the run or attempt is torn
  // down (no-op unless an incident dir is configured).
  Tracer::RecordInstant("watchdog.incident");
  TriggerIncidentDump("watchdog-" + type, detail, HealthLevel::kUnhealthy);
  const std::string reason = "watchdog confirmed " + type + ": " + detail;
  if (on_failure_ != nullptr) {
    on_failure_(reason);
  } else if (options_.abort_on_stall) {
    Introspector::Get().RequestAbort(reason);
  }
}

void Watchdog::WriteSnapshotJson(const std::vector<BeaconSnapshot>& beacons,
                                 const WaitForGraph& graph,
                                 const std::vector<int>& cycle, int64_t t_us,
                                 bool final_sample) {
  if (!jsonl_.is_open()) return;
  JsonWriter json;
  json.BeginObject();
  json.Key("type").Value("snapshot");
  json.Key("t_us").Value(t_us);
  json.Key("final").Value(final_sample);
  json.Key("workers").BeginArray();
  for (size_t w = 0; w < beacons.size(); ++w) {
    const BeaconSnapshot& b = beacons[w];
    json.BeginObject();
    json.Key("w").Value(static_cast<int64_t>(w));
    json.Key("phase").Value(WorkerPhaseName(b.phase));
    json.Key("superstep").Value(static_cast<int64_t>(b.superstep));
    json.Key("progress_epoch").Value(static_cast<int64_t>(b.progress_epoch));
    json.Key("acquiring").Value(b.acquiring);
    json.Key("token_holder").Value(b.token_holder);
    json.Key("inbox_depth").Value(b.inbox_depth);
    json.Key("outbox_bytes").Value(b.outbox_bytes);
    json.Key("wait_total").Value(static_cast<int64_t>(b.wait_total));
    json.EndObject();
  }
  json.EndArray();
  json.Key("wait_for").Raw(WaitForEdgesJson(graph));
  json.Key("cycle").BeginArray();
  for (int w : cycle) json.Value(static_cast<int64_t>(w));
  json.EndArray();
  json.EndObject();
  jsonl_ << json.str() << "\n";
  jsonl_.flush();
}

void Watchdog::WriteIncidentJson(const std::string& type,
                                 const std::string& detail,
                                 const WaitForGraph& graph, int64_t t_us) {
  if (!jsonl_.is_open()) return;
  JsonWriter json;
  json.BeginObject();
  json.Key("type").Value(type);
  json.Key("t_us").Value(t_us);
  json.Key("detail").Value(detail);
  json.Key("wait_for").Raw(WaitForEdgesJson(graph));
  json.EndObject();
  jsonl_ << json.str() << "\n";
  jsonl_.flush();
}

}  // namespace serigraph
