#include "obs/watchdog.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "obs/flightrec.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace serigraph {

void Watchdog::Start() {
  if (running_.load(std::memory_order_acquire)) return;
  if (!options_.jsonl_path.empty()) {
    jsonl_.open(options_.jsonl_path, std::ios::out | std::ios::trunc);
    if (!jsonl_.is_open()) {
      SG_LOG(kWarning) << "watchdog: cannot open JSONL log "
                       << options_.jsonl_path << "; streaming disabled";
    }
  }
  summary_ = WatchdogSummary();
  prev_cycle_.clear();
  prev_cycle_epochs_.clear();
  last_progress_sum_ = 0;
  last_progress_change_us_ = Tracer::NowMicros();
  stall_active_ = false;
  deadlock_reported_ = false;
  {
    sy::MutexLock lock(&stop_mu_);
    stop_requested_ = false;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void Watchdog::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
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
  summary_.top_contention = in.ContentionTopK(options_.top_k);
  summary_.top_edges = in.EdgeContentionTopK(options_.top_k);
  if (jsonl_.is_open()) jsonl_.close();
  running_.store(false, std::memory_order_release);
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
    }
    // Sample() runs with no watchdog lock held: it reads beacons and
    // merges contention shards (ContentionShard::mu) and must stay a
    // leaf-lock consumer (was an unlock/relock dance on stop_mu_; the
    // scoped form makes the no-lock window explicit to the analysis).
    Sample(/*final_sample=*/false);
  }
}

void Watchdog::Sample(bool final_sample) {
  Introspector& in = Introspector::Get();
  const int num_workers = in.num_workers();
  const int64_t t_us = Tracer::NowMicros();

  std::vector<BeaconSnapshot> beacons;
  beacons.reserve(num_workers);
  uint64_t progress_sum = 0;
  for (int w = 0; w < num_workers; ++w) {
    beacons.push_back(in.ReadBeacon(w));
    progress_sum += beacons.back().progress_epoch;
  }
  if (progress_sum != last_progress_sum_) {
    last_progress_sum_ = progress_sum;
    last_progress_change_us_ = t_us;
    stall_active_ = false;  // progress resumed: re-arm stall detection
  }

  WaitForGraph graph = in.BuildWaitForGraph();
  std::vector<int> cycle = FindWorkerCycle(graph);

  // Deadlock confirmation: the same worker cycle in two consecutive
  // samples with every involved worker's progress epoch frozen. A cycle
  // seen once is normal (fork transfers in flight).
  if (!cycle.empty()) {
    std::vector<int> sorted = cycle;
    std::sort(sorted.begin(), sorted.end());
    std::vector<uint64_t> epochs;
    epochs.reserve(sorted.size());
    for (int w : sorted) epochs.push_back(beacons[w].progress_epoch);
    if (!deadlock_reported_ && sorted == prev_cycle_ &&
        epochs == prev_cycle_epochs_) {
      deadlock_reported_ = true;
      summary_.deadlocks_detected += 1;
      std::string detail = "worker cycle";
      for (int w : cycle) detail += " w" + std::to_string(w);
      detail += " persisted with frozen progress; " +
                WaitForGraphSummary(graph);
      SG_LOG(kError)
          << "watchdog: DEADLOCK confirmed (Chandy-Misra guarantees "
             "deadlock-freedom; this is a protocol bug): "
          << detail;
      ReportIncident("deadlock", detail, graph, t_us);
      if (options_.abort_on_stall) {
        in.RequestAbort("watchdog confirmed deadlock: " + detail);
      }
    }
    prev_cycle_ = std::move(sorted);
    prev_cycle_epochs_ = std::move(epochs);
  } else {
    prev_cycle_.clear();
    prev_cycle_epochs_.clear();
    deadlock_reported_ = false;
  }

  // Stall: some worker has been in a blocked phase for > stall_ms while
  // global progress has been frozen for > stall_ms.
  const int64_t stall_us = static_cast<int64_t>(options_.stall_ms) * 1000;
  if (!stall_active_ && t_us - last_progress_change_us_ >= stall_us) {
    int blocked_worker = -1;
    for (int w = 0; w < num_workers; ++w) {
      const BeaconSnapshot& b = beacons[w];
      const bool blocked = b.phase == WorkerPhase::kForkWait ||
                           b.phase == WorkerPhase::kFlushWait ||
                           b.phase == WorkerPhase::kBarrierWait;
      if (blocked && t_us - b.phase_since_us >= stall_us) {
        blocked_worker = w;
        break;
      }
    }
    if (blocked_worker >= 0) {
      stall_active_ = true;
      summary_.stalls_flagged += 1;
      std::string detail =
          "worker w" + std::to_string(blocked_worker) + " blocked in " +
          WorkerPhaseName(beacons[blocked_worker].phase) + " for " +
          std::to_string((t_us - beacons[blocked_worker].phase_since_us) /
                         1000) +
          "ms with no global progress for " +
          std::to_string((t_us - last_progress_change_us_) / 1000) + "ms; " +
          WaitForGraphSummary(graph);
      SG_LOG(kWarning) << "watchdog: stall flagged: " << detail;
      ReportIncident("stall", detail, graph, t_us);
      if (options_.abort_on_stall) {
        in.RequestAbort("watchdog confirmed stall: " + detail);
      }
    }
  }

  summary_.snapshots += 1;
  if (final_sample) summary_.last_graph = graph;
  WriteSnapshotJson(beacons, graph, cycle, t_us, final_sample);
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

void Watchdog::ReportIncident(const std::string& type,
                              const std::string& detail,
                              const WaitForGraph& graph, int64_t t_us) {
  summary_.incidents.push_back(type + ": " + detail);
  WriteIncidentJson(type, detail, graph, t_us);
  // A confirmed deadlock/stall is the canonical incident: flip /healthz
  // unhealthy and write a flight-recorder bundle before the abort path
  // tears the run down (no-op unless an incident dir is configured).
  Tracer::RecordInstant("watchdog.incident");
  TriggerIncidentDump("watchdog-" + type, detail, HealthLevel::kUnhealthy);
}

}  // namespace serigraph
