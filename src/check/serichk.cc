#include "check/serichk.h"

#include <cinttypes>
#include <cstdio>

#include "algos/coloring.h"
#include "check/explorer.h"
#include "check/scheduler.h"
#include "common/logging.h"
#include "common/planted.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "pregel/engine.h"
#include "verify/history.h"

namespace serigraph {
namespace check {

namespace {

bool BuildEdgeList(const std::string& topology, int vertices,
                   EdgeList* out) {
  if (topology == "ring") {
    *out = Ring(vertices);
  } else if (topology == "clique") {
    *out = Complete(vertices);
  } else if (topology == "star") {
    *out = Star(vertices);
  } else {
    return false;
  }
  return true;
}

/// One engine execution under the installed scheduler; returns false on
/// any property violation, with the reason on stderr (the caller prints
/// the trail).
bool RunOnce(const SerichkConfig& cfg) {
  EdgeList el;
  BuildEdgeList(cfg.topology, cfg.vertices, &el);
  auto graph = Graph::FromEdgeList(el);
  if (!graph.ok()) {
    std::fprintf(stderr, "serichk: graph: %s\n",
                 graph.status().ToString().c_str());
    return false;
  }
  Graph g = graph->Undirected();

  EngineOptions opts;
  opts.model = cfg.technique == SyncMode::kConstrainedBspLocking
                   ? ComputationModel::kBsp
                   : ComputationModel::kAsync;
  opts.sync_mode = cfg.technique;
  opts.num_workers = cfg.workers;
  opts.partitions_per_worker = cfg.partitions_per_worker;
  opts.compute_threads_per_worker = 1;
  opts.record_history = true;
  opts.max_supersteps = 20000;
  Engine<GreedyColoring> engine(&g, opts);
  auto result = engine.Run(GreedyColoring());
  if (!result.ok()) {
    std::fprintf(stderr, "serichk: engine: %s\n",
                 result.status().ToString().c_str());
    return false;
  }
  if (!result->stats.converged) {
    std::fprintf(stderr, "serichk: run did not converge\n");
    return false;
  }
  if (!IsProperColoring(g, result->values)) {
    std::fprintf(stderr, "serichk: IMPROPER COLORING\n");
    return false;
  }
  HistoryCheck check = CheckHistory(g, result->history->TakeRecords());
  if (check.num_transactions <= 0) {
    std::fprintf(stderr, "serichk: empty history\n");
    return false;
  }
  if (!check.c1_fresh_reads) {
    std::fprintf(stderr, "serichk: C1 VIOLATION (%lld stale reads): %s\n",
                 static_cast<long long>(check.c1_violations),
                 check.violation_samples.empty()
                     ? "?"
                     : check.violation_samples[0].c_str());
    return false;
  }
  if (!check.c2_no_neighbor_overlap) {
    std::fprintf(stderr, "serichk: C2 VIOLATION (%lld overlaps)\n",
                 static_cast<long long>(check.c2_violations));
    return false;
  }
  if (!check.serializable) {
    std::fprintf(stderr, "serichk: NOT 1SR (serialization graph cyclic)\n");
    return false;
  }
  return true;
}

bool ParseTrail(const std::string& replay, std::vector<int>* out) {
  int value = 0;
  bool have = false;
  for (char c : replay) {
    if (c >= '0' && c <= '9') {
      value = value * 10 + (c - '0');
      have = true;
    } else if (c == ',') {
      if (!have) return false;
      out->push_back(value);
      value = 0;
      have = false;
    } else {
      return false;
    }
  }
  if (have) out->push_back(value);
  return !out->empty();
}

}  // namespace

int RunSerichk(const SerichkConfig& cfg) {
  EdgeList probe;
  if (!BuildEdgeList(cfg.topology, cfg.vertices, &probe)) {
    std::fprintf(stderr, "serichk: unknown topology '%s'\n",
                 cfg.topology.c_str());
    return 2;
  }
  if (cfg.workers < 1 || cfg.vertices < 2) {
    std::fprintf(stderr, "serichk: need >=1 workers, >=2 vertices\n");
    return 2;
  }

  // Schedule-point noise control: anything that takes an sy:: lock on the
  // worker threads becomes part of the explored state space. Demote
  // per-run INFO logging and the tracer's (default-on) tail, whose log
  // registration locks; metrics counters are lock-free and stay.
  SetLogLevel(LogLevel::kError);
  Tracer::SetRetention(Tracer::Retention::kOff);

  Planted::Clear();
  if (!cfg.plant.empty()) {
    Planted::Enable(cfg.plant.c_str());
    std::printf("serichk: planted bug '%s' enabled\n", cfg.plant.c_str());
  }

  const int expected_threads = 2 * cfg.workers;  // compute + comm per worker

  if (!cfg.replay.empty()) {
    VirtualScheduler::Options sopts;
    sopts.expected_threads = expected_threads;
    if (!ParseTrail(cfg.replay, &sopts.trail)) {
      std::fprintf(stderr, "serichk: bad --replay trail\n");
      return 2;
    }
    sopts.object_por = cfg.object_por;
    sopts.max_steps = cfg.max_steps;
    VirtualScheduler sched(sopts);
    sy::InstallScheduler(&sched);
    const bool ok = RunOnce(cfg);
    sy::InstallScheduler(nullptr);
    std::printf(
        "serichk: replay technique=%s topology=%s n=%d w=%d decisions=%zu "
        "trace_hash=%016" PRIx64 " => %s\n",
        SyncModeName(cfg.technique), cfg.topology.c_str(), cfg.vertices,
        cfg.workers, sched.decisions().size(), sched.trace_hash(),
        ok ? "PASS" : "FAIL");
    if (!ok) {
      std::fprintf(stderr, "serichk: failing trail: %s\n",
                   VirtualScheduler::FormatTrail(sched.decisions()).c_str());
      return 3;
    }
    return 0;
  }

  ExploreOptions eopts;
  eopts.expected_threads = expected_threads;
  eopts.preemption_bound = cfg.preemption_bound;
  eopts.max_schedules = cfg.max_schedules;
  eopts.max_seconds = cfg.max_seconds;
  eopts.object_por = cfg.object_por;
  eopts.max_steps = cfg.max_steps;

  ExploreStats stats;
  std::string failing_trail;
  const bool ok = Explore(
      eopts, [&cfg](VirtualScheduler&) { return RunOnce(cfg); }, &stats,
      &failing_trail);
  std::printf(
      "serichk: technique=%s topology=%s n=%d w=%d preempt<=%d "
      "schedules=%lld pruned=%lld max_decisions=%d folded_hash=%016" PRIx64
      "%s%s => %s\n",
      SyncModeName(cfg.technique), cfg.topology.c_str(), cfg.vertices,
      cfg.workers, cfg.preemption_bound,
      static_cast<long long>(stats.schedules),
      static_cast<long long>(stats.pruned_by_budget), stats.max_decisions,
      stats.folded_hash, stats.hit_schedule_cap ? " (schedule cap)" : "",
      stats.hit_time_cap ? " (time cap)" : "", ok ? "PASS" : "FAIL");
  if (!ok) {
    std::fprintf(stderr, "serichk: failing trail: --replay %s\n",
                 failing_trail.c_str());
    return 3;
  }
  return 0;
}

}  // namespace check
}  // namespace serigraph
