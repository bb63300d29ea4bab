// serigraph_cli: run any bundled algorithm on any dataset under any
// computation model / synchronization technique from the command line —
// the "serializability as a configuration option" story of the paper
// (Section 6.5), end to end.
//
// Examples (an indented line continues the command above it):
//   serigraph_cli --algorithm=coloring --dataset=OR'
//       --sync=partition-locking --workers=8 --verify
//   serigraph_cli --algorithm=pagerank --generator=powerlaw
//       --vertices=20000 --degree=12 --workers=16 --latency-us=100
//   serigraph_cli --algorithm=sssp --edge-list=/path/graph.txt

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>

#include "algos/coloring.h"
#include "algos/label_propagation.h"
#include "algos/mis.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "algos/triangles.h"
#include "algos/wcc.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "harness/datasets.h"
#include "obs/flightrec.h"
#include "obs/httpd.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "pregel/engine.h"
#include "pregel/model.h"
#include "verify/history.h"

using namespace serigraph;

namespace {

struct CliOptions {
  std::string algorithm = "pagerank";
  std::string dataset;
  std::string generator;
  std::string edge_list;
  std::string sync = "partition-locking";
  std::string model = "ap";
  std::string push_pull = "auto";
  VertexId vertices = 10000;
  double degree = 10.0;
  int workers = 8;
  int threads = 2;
  int64_t latency_us = 0;
  uint64_t seed = 42;
  double tolerance = 0.01;
  bool verify = false;
  bool help = false;
  std::string trace_out;
  std::string metrics_json;
  bool introspect = false;
  std::string introspect_out;
  int64_t watchdog_ms = 0;
  int64_t stall_abort_ms = 0;
  bool perf_counters = false;
  std::string prom_out;
  std::string fault_plan;  // file path, or "random"
  uint64_t fault_seed = 1;
  bool recover = false;
  int max_recovery = 3;
  int checkpoint_every = 0;
  std::string checkpoint_dir = ".";
  int64_t heartbeat_timeout_ms = 0;
  int serve_obs = -1;  // -1 off; 0 = ephemeral port; >0 fixed port
  std::string incident_dir;
  std::string live_report;
  int64_t obs_linger_ms = 0;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

CliOptions Parse(int argc, char** argv) {
  CliOptions opts;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (ParseFlag(arg, "algorithm", &opts.algorithm)) continue;
    if (ParseFlag(arg, "dataset", &opts.dataset)) continue;
    if (ParseFlag(arg, "generator", &opts.generator)) continue;
    if (ParseFlag(arg, "edge-list", &opts.edge_list)) continue;
    if (ParseFlag(arg, "sync", &opts.sync)) continue;
    if (ParseFlag(arg, "model", &opts.model)) continue;
    if (ParseFlag(arg, "push-pull", &opts.push_pull)) continue;
    if (ParseFlag(arg, "vertices", &value)) {
      opts.vertices = std::atoll(value.c_str());
      continue;
    }
    if (ParseFlag(arg, "degree", &value)) {
      opts.degree = std::atof(value.c_str());
      continue;
    }
    if (ParseFlag(arg, "workers", &value)) {
      opts.workers = std::atoi(value.c_str());
      continue;
    }
    if (ParseFlag(arg, "threads", &value)) {
      opts.threads = std::atoi(value.c_str());
      continue;
    }
    if (ParseFlag(arg, "latency-us", &value)) {
      opts.latency_us = std::atoll(value.c_str());
      continue;
    }
    if (ParseFlag(arg, "seed", &value)) {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
      continue;
    }
    if (ParseFlag(arg, "tolerance", &value)) {
      opts.tolerance = std::atof(value.c_str());
      continue;
    }
    if (ParseFlag(arg, "trace-out", &opts.trace_out)) continue;
    if (ParseFlag(arg, "metrics-json", &opts.metrics_json)) continue;
    if (ParseFlag(arg, "introspect-out", &opts.introspect_out)) continue;
    if (ParseFlag(arg, "prom-out", &opts.prom_out)) continue;
    if (ParseFlag(arg, "watchdog-ms", &value)) {
      opts.watchdog_ms = std::atoll(value.c_str());
      continue;
    }
    if (ParseFlag(arg, "stall-abort-ms", &value)) {
      opts.stall_abort_ms = std::atoll(value.c_str());
      continue;
    }
    if (ParseFlag(arg, "fault-plan", &opts.fault_plan)) continue;
    if (ParseFlag(arg, "fault-seed", &value)) {
      opts.fault_seed = std::strtoull(value.c_str(), nullptr, 10);
      continue;
    }
    if (ParseFlag(arg, "max-recovery", &value)) {
      opts.max_recovery = std::atoi(value.c_str());
      continue;
    }
    if (ParseFlag(arg, "checkpoint-every", &value)) {
      opts.checkpoint_every = std::atoi(value.c_str());
      continue;
    }
    if (ParseFlag(arg, "checkpoint-dir", &opts.checkpoint_dir)) continue;
    if (ParseFlag(arg, "heartbeat-timeout-ms", &value)) {
      opts.heartbeat_timeout_ms = std::atoll(value.c_str());
      continue;
    }
    if (ParseFlag(arg, "serve-obs", &value)) {
      opts.serve_obs = std::atoi(value.c_str());
      continue;
    }
    if (ParseFlag(arg, "incident-dir", &opts.incident_dir)) continue;
    if (ParseFlag(arg, "live-report", &opts.live_report)) continue;
    if (ParseFlag(arg, "obs-linger-ms", &value)) {
      opts.obs_linger_ms = std::atoll(value.c_str());
      continue;
    }
    if (std::strcmp(arg, "--recover") == 0) {
      opts.recover = true;
      continue;
    }
    if (std::strcmp(arg, "--introspect") == 0) {
      opts.introspect = true;
      continue;
    }
    if (std::strcmp(arg, "--perf-counters") == 0) {
      opts.perf_counters = true;
      continue;
    }
    if (std::strcmp(arg, "--verify") == 0) {
      opts.verify = true;
      continue;
    }
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      opts.help = true;
      continue;
    }
    std::fprintf(stderr, "unknown argument: %s (try --help)\n", arg);
    opts.help = true;
  }
  return opts;
}

void PrintHelp() {
  std::printf(
      "serigraph_cli — run a vertex program with configurable "
      "serializability\n\n"
      "  --algorithm=coloring|pagerank|sssp|wcc|mis|lpa|triangles\n"
      "  --dataset=OR'|AR'|TW'|UK'        Table 1 stand-in graphs\n"
      "  --generator=powerlaw|erdos|grid  synthetic graph instead\n"
      "  --vertices=N --degree=D --seed=S generator parameters\n"
      "  --edge-list=PATH                 load a SNAP-style text file\n"
      "  --model=ap|bsp                   computation model\n"
      "  --push-pull=auto|push|pull       BSP transfer strategy "
      "(docs/PERF.md)\n"
      "  --sync=none|single-token|dual-token|vertex-locking|\n"
      "         partition-locking|bsp-constrained-locking\n"
      "  --workers=N --threads=N          simulated cluster shape\n"
      "  --latency-us=N                   simulated one-way latency\n"
      "  --tolerance=X                    PageRank threshold\n"
      "  --verify                         record + check C1/C2/1SR\n"
      "  --trace-out=FILE                 write a Chrome trace-event JSON\n"
      "                                   (open in Perfetto / chrome://tracing)\n"
      "  --metrics-json=FILE              write run stats + per-superstep\n"
      "                                   timeline as JSON\n"
      "  --introspect                     enable sync-layer introspection\n"
      "                                   (beacons, watchdog, contention)\n"
      "  --introspect-out=FILE            stream watchdog wait-for-graph\n"
      "                                   snapshots as JSONL (implies\n"
      "                                   --introspect)\n"
      "  --watchdog-ms=N                  watchdog sampling period (implies\n"
      "                                   --introspect; default 25)\n"
      "  --stall-abort-ms=N               abort cleanly when no global\n"
      "                                   progress for N ms (implies\n"
      "                                   --introspect)\n"
      "  --prom-out=FILE                  write final metrics in Prometheus\n"
      "                                   text exposition format\n"
      "  --perf-counters                  sample hardware perf counters\n"
      "                                   (cycles, IPC, LLC misses) and RSS\n"
      "                                   per superstep; falls back to\n"
      "                                   software counters where perf is\n"
      "                                   unavailable (docs/PROFILING.md)\n"
      "  --checkpoint-every=N             checkpoint after every N\n"
      "                                   supersteps into --checkpoint-dir\n"
      "  --checkpoint-dir=PATH            checkpoint directory (default .)\n"
      "  --fault-plan=FILE|random         arm a fault-injection plan\n"
      "                                   (docs/FAULT_TOLERANCE.md format),\n"
      "                                   or generate one from --fault-seed\n"
      "  --fault-seed=N                   seed for --fault-plan=random\n"
      "  --recover                        detect worker failures and\n"
      "                                   restore from the last checkpoint\n"
      "  --max-recovery=N                 recovery attempts before giving\n"
      "                                   up (default 3)\n"
      "  --heartbeat-timeout-ms=N         supervisor per-worker timeout\n"
      "  --serve-obs=PORT                 serve /metrics /healthz /statusz\n"
      "                                   /incidentz on 127.0.0.1:PORT while\n"
      "                                   the run is live (0 = pick an\n"
      "                                   ephemeral port; implies\n"
      "                                   --introspect)\n"
      "  --obs-linger-ms=N                keep the obs endpoint up N ms\n"
      "                                   after the run finishes so scrapers\n"
      "                                   can collect the final state\n"
      "  --incident-dir=DIR               write flight-recorder incident\n"
      "                                   bundles here on confirmed\n"
      "                                   deadlock/stall, worker failure, or\n"
      "                                   fatal signal (docs/OBSERVABILITY.md)\n"
      "  --live-report=FILE               stream one JSONL progress line per\n"
      "                                   superstep, flushed for tail -f\n");
}

StatusOr<SyncMode> ParseSync(const std::string& name) {
  if (name == "none") return SyncMode::kNone;
  if (name == "single-token") return SyncMode::kSingleLayerToken;
  if (name == "dual-token") return SyncMode::kDualLayerToken;
  if (name == "vertex-locking") return SyncMode::kVertexLocking;
  if (name == "partition-locking") return SyncMode::kPartitionLocking;
  if (name == "bsp-constrained-locking") {
    return SyncMode::kConstrainedBspLocking;
  }
  return Status::InvalidArgument("unknown sync mode " + name);
}

StatusOr<Graph> LoadGraph(const CliOptions& opts, bool undirected) {
  EdgeList el;
  if (!opts.edge_list.empty()) {
    auto loaded = LoadEdgeListText(opts.edge_list);
    SERIGRAPH_RETURN_IF_ERROR(loaded.status());
    el = std::move(loaded).value();
  } else if (!opts.dataset.empty()) {
    Graph g = MakeDataset(FindSpec(opts.dataset));
    return undirected ? g.Undirected() : std::move(g);
  } else if (opts.generator == "erdos") {
    el = ErdosRenyi(opts.vertices,
                    static_cast<int64_t>(opts.degree *
                                         static_cast<double>(opts.vertices)),
                    opts.seed);
  } else if (opts.generator == "grid") {
    const VertexId side = std::max<VertexId>(
        2, static_cast<VertexId>(std::sqrt(double(opts.vertices))));
    el = Grid(side, side);
  } else {  // default: powerlaw
    el = PowerLawChungLu(opts.vertices, opts.degree, 2.2, opts.seed);
  }
  auto graph = Graph::FromEdgeList(el);
  SERIGRAPH_RETURN_IF_ERROR(graph.status());
  return undirected ? graph->Undirected() : std::move(graph).value();
}

template <typename Program>
int RunAndReport(const Graph& graph, const CliOptions& cli,
                 EngineOptions options, const Program& program,
                 const std::string& result_note) {
  options.record_history = cli.verify;
  Engine<Program> engine(&graph, options);
  auto result = engine.Run(program);
  if (!result.ok()) {
    std::fprintf(stderr, "engine error: %s\n",
                 result.status().ToString().c_str());
    // A watchdog-triggered abort (--stall-abort-ms) is a diagnosed stall,
    // not a crash: distinguish it for scripts.
    return result.status().code() == StatusCode::kAborted ? 3 : 1;
  }
  std::printf("%s in %d supersteps, %.1f ms computation time\n",
              result->stats.converged ? "converged" : "CUT OFF",
              result->stats.supersteps,
              result->stats.computation_seconds * 1e3);
  std::printf("messages: %lld sent (%lld local), %lld data batches, "
              "%lld control msgs, %lld fork transfers\n",
              (long long)result->stats.Metric("pregel.messages_sent"),
              (long long)result->stats.Metric("pregel.local_sends"),
              (long long)result->stats.Metric("net.data_batches"),
              (long long)result->stats.Metric("net.control_messages"),
              (long long)result->stats.Metric("sync.fork_transfers"));
  if (!result_note.empty()) std::printf("%s\n", result_note.c_str());
  if (result->stats.recovery_attempts > 0 ||
      !result->stats.recovery_events.empty()) {
    std::printf("recovery: %d attempt%s\n", result->stats.recovery_attempts,
                result->stats.recovery_attempts == 1 ? "" : "s");
    for (const auto& event : result->stats.recovery_events) {
      std::printf("  %s\n", event.c_str());
    }
  }
  if (options.perf_counters) {
    const RunStats& stats = result->stats;
    if (stats.perf_hw_counters) {
      const int64_t cycles = stats.Metric("perf.cycles");
      const int64_t instructions = stats.Metric("perf.instructions");
      const int64_t llc_loads = stats.Metric("perf.llc_loads");
      const int64_t llc_misses = stats.Metric("perf.llc_misses");
      std::printf("perf: %lld cycles, %lld instructions (IPC %.2f), "
                  "%lld/%lld LLC misses/loads, %lld branch misses\n",
                  (long long)cycles, (long long)instructions,
                  cycles > 0 ? double(instructions) / double(cycles) : 0.0,
                  (long long)llc_misses, (long long)llc_loads,
                  (long long)stats.Metric("perf.branch_misses"));
    } else {
      std::printf("perf: hardware counters unavailable (%s); "
                  "software fallback\n", stats.perf_fallback.c_str());
    }
    std::printf("perf: %lld ms task clock, %lld ctx switches, "
                "%lld minor / %lld major faults, peak RSS %lld KiB\n",
                (long long)stats.Metric("perf.task_clock_ms"),
                (long long)stats.Metric("perf.ctx_switches"),
                (long long)stats.Metric("perf.minor_faults"),
                (long long)stats.Metric("perf.major_faults"),
                (long long)stats.peak_rss_kb);
  }
  if (options.introspect) {
    const RunStats& stats = result->stats;
    std::printf("introspection: %lld snapshots, %lld stalls, "
                "%lld deadlocks\n",
                (long long)stats.introspect_snapshots,
                (long long)stats.introspect_stalls,
                (long long)stats.introspect_deadlocks);
    for (const auto& incident : stats.introspect_incidents) {
      std::printf("  incident: %s\n", incident.c_str());
    }
    if (!stats.contention.empty()) {
      std::printf("hottest %ss by attributed fork-wait time:\n",
                  stats.resource_kind.c_str());
      for (const auto& e : stats.contention) {
        std::printf("  %-10lld %6lld waits  %10lld us total  %8lld us max\n",
                    (long long)e.resource, (long long)e.count,
                    (long long)e.total_wait_us, (long long)e.max_wait_us);
      }
    }
    if (!stats.contention_edges.empty()) {
      std::printf("hottest wait-for edges (%s waiter -> blocker):\n",
                  stats.resource_kind.c_str());
      for (const auto& e : stats.contention_edges) {
        std::printf("  %-10lld -> %-10lld  %6lld waits  %10lld us\n",
                    (long long)e.waiter, (long long)e.blocker,
                    (long long)e.count, (long long)e.total_wait_us);
      }
    }
  }
  if (!cli.metrics_json.empty()) {
    Status s = WriteTextFile(cli.metrics_json, RunStatsToJson(result->stats));
    if (!s.ok()) {
      std::fprintf(stderr, "metrics-json: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", cli.metrics_json.c_str());
  }
  if (!cli.prom_out.empty()) {
    Status s = WriteTextFile(cli.prom_out,
                             MetricsToPrometheusText(result->stats.metrics));
    if (!s.ok()) {
      std::fprintf(stderr, "prom-out: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("prometheus metrics written to %s\n", cli.prom_out.c_str());
  }
  if (!cli.trace_out.empty()) {
    Status s = Tracer::Get().WriteChromeTrace(cli.trace_out);
    if (!s.ok()) {
      std::fprintf(stderr, "trace-out: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("trace written to %s (%lld events)\n", cli.trace_out.c_str(),
                (long long)Tracer::Get().event_count());
  }
  if (cli.verify) {
    HistoryCheck check =
        CheckHistory(graph, result->history->TakeRecords());
    std::printf("verification: %lld transactions, C1 %s, C2 %s, 1SR %s\n",
                (long long)check.num_transactions,
                check.c1_fresh_reads ? "fresh" : "VIOLATED",
                check.c2_no_neighbor_overlap ? "disjoint" : "VIOLATED",
                check.serializable ? "serializable" : "NOT SERIALIZABLE");
    for (const auto& sample : check.violation_samples) {
      std::printf("  %s\n", sample.c_str());
    }
    return check.ok() ? 0 : 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli = Parse(argc, argv);
  if (cli.help) {
    PrintHelp();
    return 0;
  }
  auto sync = ParseSync(cli.sync);
  if (!sync.ok()) {
    std::fprintf(stderr, "%s\n", sync.status().ToString().c_str());
    return 1;
  }
  const bool undirected = cli.algorithm == "coloring" ||
                          cli.algorithm == "mis" || cli.algorithm == "lpa" ||
                          cli.algorithm == "wcc" ||
                          cli.algorithm == "triangles";
  auto graph_or = LoadGraph(cli, undirected);
  if (!graph_or.ok()) {
    std::fprintf(stderr, "%s\n", graph_or.status().ToString().c_str());
    return 1;
  }
  Graph graph = std::move(graph_or).value();
  if (!cli.trace_out.empty()) {
    Tracer::Get().Enable();
  }
  GraphStats stats = ComputeGraphStats(graph, false);
  std::printf("graph: %lld vertices, %lld directed edges, max degree %lld\n",
              (long long)stats.num_vertices,
              (long long)stats.num_directed_edges,
              (long long)stats.max_degree);

  EngineOptions options;
  options.sync_mode = *sync;
  options.model = cli.model == "bsp" ? ComputationModel::kBsp
                                     : ComputationModel::kAsync;
  options.num_workers = cli.workers;
  options.compute_threads_per_worker = cli.threads;
  if (cli.push_pull == "push") {
    options.push_pull = PushPullMode::kForcePush;
  } else if (cli.push_pull == "pull") {
    options.push_pull = PushPullMode::kForcePull;
  } else if (cli.push_pull == "auto") {
    options.push_pull = PushPullMode::kAuto;
  } else {
    std::fprintf(stderr, "unknown --push-pull=%s (auto|push|pull)\n",
                 cli.push_pull.c_str());
    return 1;
  }
  options.network.one_way_latency_us = cli.latency_us;
  options.introspect = cli.introspect || !cli.introspect_out.empty() ||
                       cli.watchdog_ms > 0 || cli.stall_abort_ms > 0 ||
                       cli.serve_obs >= 0;
  if (options.introspect) {
    options.watchdog.jsonl_path = cli.introspect_out;
    if (cli.watchdog_ms > 0) options.watchdog.period_ms = cli.watchdog_ms;
    if (cli.stall_abort_ms > 0) {
      options.watchdog.stall_ms = cli.stall_abort_ms;
      options.watchdog.abort_on_stall = true;
    }
  }
  options.perf_counters = cli.perf_counters;
  options.live_report_path = cli.live_report;
  options.checkpoint_every = cli.checkpoint_every;
  options.checkpoint_dir = cli.checkpoint_dir;
  options.fault.recover = cli.recover;
  options.fault.max_recovery_attempts = cli.max_recovery;
  if (cli.heartbeat_timeout_ms > 0) {
    options.fault.supervisor.heartbeat_timeout_ms = cli.heartbeat_timeout_ms;
  }
  if (!cli.fault_plan.empty()) {
    if (cli.fault_plan == "random") {
      options.fault.plan = FaultPlan::Random(cli.fault_seed, cli.workers);
      std::printf("fault plan (seed %llu):\n%s",
                  (unsigned long long)cli.fault_seed,
                  options.fault.plan.ToString().c_str());
    } else {
      auto plan = FaultPlan::ParseFile(cli.fault_plan);
      if (!plan.ok()) {
        std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
        return 1;
      }
      options.fault.plan = std::move(*plan);
    }
  }
  std::printf("running %s: model=%s sync=%s workers=%d\n",
              cli.algorithm.c_str(), ComputationModelName(options.model),
              SyncModeName(options.sync_mode), options.num_workers);

  // Live telemetry plane (docs/OBSERVABILITY.md "Live operations"): the
  // incident dir arms automatic flight-recorder dumps (including the
  // fatal-signal path), and --serve-obs exposes /metrics /healthz
  // /statusz /incidentz for the duration of the run.
  if (!cli.incident_dir.empty()) {
    IncidentManager::Get().SetIncidentDir(cli.incident_dir);
    InstallFatalSignalHandlers();
  }
  std::unique_ptr<ObsServer> obs_server;
  if (cli.serve_obs >= 0) {
    ObsServer::Options obs_options;
    obs_options.port = cli.serve_obs;
    auto server = ObsServer::Start(obs_options);
    if (!server.ok()) {
      std::fprintf(stderr, "obs endpoint failed: %s\n",
                   server.status().ToString().c_str());
      return 1;
    }
    obs_server = std::move(server).value();
    // Parsed by scripts/check.sh --obs-smoke; keep the format stable.
    std::printf("obs: serving http://127.0.0.1:%d/{metrics,healthz,"
                "statusz,incidentz}\n", obs_server->port());
    std::fflush(stdout);
  }

  const auto run = [&]() -> int {
    if (cli.algorithm == "coloring") {
      return RunAndReport(graph, cli, options, GreedyColoring(), "");
    }
    if (cli.algorithm == "pagerank") {
      return RunAndReport(graph, cli, options, PageRank(cli.tolerance), "");
    }
    if (cli.algorithm == "sssp") {
      return RunAndReport(graph, cli, options, Sssp(0), "");
    }
    if (cli.algorithm == "wcc") {
      return RunAndReport(graph, cli, options, Wcc(), "");
    }
    if (cli.algorithm == "mis") {
      return RunAndReport(graph, cli, options, MaximalIndependentSet(), "");
    }
    if (cli.algorithm == "lpa") {
      return RunAndReport(graph, cli, options, LabelPropagation(), "");
    }
    if (cli.algorithm == "triangles") {
      return RunAndReport(graph, cli, options, TriangleCount(), "");
    }
    std::fprintf(stderr, "unknown algorithm %s (try --help)\n",
                 cli.algorithm.c_str());
    return 1;
  };
  const int exit_code = run();

  // An aborted run (exit 3: watchdog/supervisor) must never exit without
  // the incident that caused it on disk: the in-engine triggers normally
  // wrote one already, but if every automatic dump was rate-limited or
  // failed, capture a final bundle while the flight recorder still holds
  // the tail.
  if (exit_code == 3 && !cli.incident_dir.empty() &&
      IncidentManager::Get().List().empty()) {
    TriggerIncidentDump("cli-abort", "run aborted (exit 3)",
                        HealthLevel::kUnhealthy);
  }
  if (obs_server != nullptr) {
    if (cli.obs_linger_ms > 0) {
      std::printf("obs: lingering %lld ms for final scrapes\n",
                  (long long)cli.obs_linger_ms);
      std::fflush(stdout);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(cli.obs_linger_ms));
    }
    obs_server->Stop();
  }
  return exit_code;
}
