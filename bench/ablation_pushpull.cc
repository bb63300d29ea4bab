// Push/pull calibration (docs/PERF.md, "Push vs. pull"). Runs BSP
// PageRank, SSSP and WCC on a UK'-shaped Chung–Lu graph and on an
// Erdős–Rényi graph with the same vertex and edge counts, each under
// forced push, forced pull and the auto switch, in the pagerank-bsp job
// shape (2 workers, 1 compute thread each, Giraph-default partitions).
//
// Per (graph, algorithm) it prints every superstep's auto mode and the
// edge share that decided it, next to the slowest worker's compute time
// under each mode, and checks that SSSP and WCC agree across modes. From
// PageRank's forced runs it derives the cost model's ratio: compute
// thread-time per pushed message (forced push) over compute thread-time
// per gathered in-edge (forced pull, every gather superstep sweeps all
// |E| in-edges), to compare with kPullCostRatio: once per repetition,
// reporting the median and the range.
//
//   ablation_pushpull [--reps=N] [--json=FILE]
//
// SERIGRAPH_SCALE scales the 160k vertices of the pagerank-bsp graph.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "graph/generators.h"
#include "harness.h"
#include "harness/datasets.h"
#include "harness/runner.h"
#include "harness/table.h"

using namespace serigraph;

namespace {

constexpr VertexId kVertices = 160000;  // pagerank-bsp's graph size
constexpr double kPageRankTolerance = 0.01;  // pagerank-bsp's tolerance

VertexId ScaledVertices() {
  const char* env = std::getenv("SERIGRAPH_SCALE");
  const double scale = env != nullptr && std::atof(env) > 0 ? std::atof(env)
                                                            : 1.0;
  return std::max<VertexId>(64, static_cast<VertexId>(kVertices * scale));
}

const PushPullMode kModes[] = {PushPullMode::kForcePush,
                               PushPullMode::kForcePull, PushPullMode::kAuto};
const char* ModeName(PushPullMode mode) {
  switch (mode) {
    case PushPullMode::kForcePush:
      return "push";
    case PushPullMode::kForcePull:
      return "pull";
    case PushPullMode::kAuto:
      return "auto";
  }
  return "?";
}

/// One superstep of one run, folded over workers.
struct Step {
  int64_t max_compute_us = 0;  // slowest worker
  int64_t sum_compute_us = 0;  // thread-time
  int64_t messages = 0;
  int64_t edge_share_milli = 0;
  uint8_t pull_mode = 0;
};

std::vector<Step> Steps(const RunStats& stats) {
  std::vector<Step> steps(static_cast<size_t>(stats.supersteps));
  for (const SuperstepSample& s : stats.timeline) {
    if (s.superstep < 0 || s.superstep >= stats.supersteps) continue;
    Step& step = steps[static_cast<size_t>(s.superstep)];
    step.max_compute_us = std::max(step.max_compute_us, s.compute_us);
    step.sum_compute_us += s.compute_us;
    step.messages += s.messages_sent;
    step.edge_share_milli = s.frontier_edge_share_milli;
    step.pull_mode = s.pull_mode;
  }
  return steps;
}

/// The runs of one (graph, algorithm) cell under every mode.
struct ModeRuns {
  std::vector<double> seconds;  // computation time per repetition
  std::vector<RunStats> stats;  // every repetition's stats

  const RunStats& last() const { return stats.back(); }
};

template <typename Program>
std::map<PushPullMode, ModeRuns> RunModes(
    const Graph& graph, const Program& program, int reps,
    std::vector<typename Program::VertexValue>* push_values) {
  std::map<PushPullMode, ModeRuns> runs;
  for (int rep = 0; rep < reps; ++rep) {
    // Modes alternate within a repetition, so a drifting host spreads
    // over all three alike.
    for (PushPullMode mode : kModes) {
      RunConfig config;
      config.model = ComputationModel::kBsp;
      config.num_workers = 2;
      config.compute_threads_per_worker = 1;
      config.network = BenchNetwork();
      config.push_pull = mode;
      std::vector<typename Program::VertexValue> values;
      RunStats stats = RunProgram(graph, program, config, &values);
      SG_CHECK(stats.converged);
      if (mode == PushPullMode::kForcePush) {
        *push_values = values;
      } else if constexpr (!std::is_floating_point_v<
                               typename Program::VertexValue>) {
        // Min folds are exact: every mode must reach the same labels.
        if (values != *push_values) {
          SG_LOG(kFatal) << ModeName(mode) << " disagrees with push";
        }
      }
      runs[mode].seconds.push_back(stats.computation_seconds);
      runs[mode].stats.push_back(std::move(stats));
    }
  }
  return runs;
}

/// One repetition's calibration.
struct Calibration {
  double push_ns_per_message = 0.0;
  double gather_ns_per_in_edge = 0.0;

  double alpha() const {
    return gather_ns_per_in_edge > 0
               ? push_ns_per_message / gather_ns_per_in_edge
               : 0.0;
  }
};

/// Compute thread-time per pushed message (a forced-push run) and per
/// gathered in-edge (a forced-pull run's gather supersteps).
Calibration Calibrate(const RunStats& push, const RunStats& pull,
                      int64_t num_edges) {
  int64_t push_us = 0, pushed = 0;
  for (const Step& s : Steps(push)) {
    if (s.messages == 0) continue;
    push_us += s.sum_compute_us;
    pushed += s.messages;
  }
  int64_t gather_us = 0, gathers = 0;
  for (const Step& s : Steps(pull)) {
    if ((s.pull_mode & 2) == 0) continue;
    gather_us += s.sum_compute_us;
    ++gathers;
  }
  Calibration c;
  if (pushed > 0) c.push_ns_per_message = 1e3 * push_us / pushed;
  if (gathers > 0 && num_edges > 0) {
    c.gather_ns_per_in_edge =
        1e3 * gather_us / (static_cast<double>(gathers) * num_edges);
  }
  return c;
}

/// Median, minimum and maximum of `samples` (non-empty).
struct Spread {
  double median, min, max;
};
Spread SpreadOf(const std::vector<double>& samples) {
  return {MedianOf(samples),
          *std::min_element(samples.begin(), samples.end()),
          *std::max_element(samples.begin(), samples.end())};
}

std::string Ms(int64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", us / 1e3);
  return buf;
}

void PrintSupersteps(const std::map<PushPullMode, ModeRuns>& runs) {
  const std::vector<Step> push =
      Steps(runs.at(PushPullMode::kForcePush).last());
  const std::vector<Step> pull =
      Steps(runs.at(PushPullMode::kForcePull).last());
  const std::vector<Step> aut = Steps(runs.at(PushPullMode::kAuto).last());
  TablePrinter table({"superstep", "auto mode", "edge share in", "push ms",
                      "pull ms", "auto ms"});
  for (size_t s = 0; s < aut.size(); ++s) {
    const char* mode = (aut[s].pull_mode & 1) != 0 ? "pull" : "push";
    // The share recorded at the previous barrier decided this superstep
    // (superstep 0 is decided from the initial frontier, all active).
    const std::string share =
        s == 0 ? "-" : std::to_string(aut[s - 1].edge_share_milli) + "/1000";
    table.AddRow({std::to_string(s), mode, share,
                  s < push.size() ? Ms(push[s].max_compute_us) : "-",
                  s < pull.size() ? Ms(pull[s].max_compute_us) : "-",
                  Ms(aut[s].max_compute_us)});
  }
  table.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  for (size_t i = 1; i + 1 < args.passthrough.size(); ++i) {
    std::fprintf(stderr, "unknown argument: %s\n", args.passthrough[i]);
    args.help = true;
  }
  if (args.help) {
    std::printf(
        "ablation_pushpull: push/pull calibration\n"
        "  --json=FILE  write BENCH.json (schema v%d) of all cells\n"
        "  --reps=N     repeat each cell N times, report the median\n",
        BenchReport::kSchemaVersion);
    return argc > 1 ? 2 : 0;
  }
  const int reps = std::max(1, args.reps);
  const VertexId n = ScaledVertices();
  const DatasetSpec uk = FindSpec("UK'");

  PrintHeader(std::cout, "Push/pull calibration (BSP, 2 workers x 1 thread, " +
                             std::to_string(n) + " vertices)");

  struct GraphCase {
    std::string name;
    Graph graph;
  };
  std::vector<GraphCase> graphs;
  {
    auto chung_lu =
        Graph::FromEdgeList(PowerLawChungLu(n, uk.avg_degree, uk.gamma, 1));
    SG_CHECK_OK(chung_lu.status());
    const int64_t m = chung_lu->num_edges();
    graphs.push_back({"UK'", std::move(chung_lu).value()});
    auto erdos = Graph::FromEdgeList(ErdosRenyi(n, m, 1));
    SG_CHECK_OK(erdos.status());
    graphs.push_back({"erdos", std::move(erdos).value()});
  }

  BenchReport report;
  TablePrinter summary({"graph", "algorithm", "push", "pull", "auto",
                        "push/pull", "auto pulls", "supersteps"});
  for (const GraphCase& g : graphs) {
    const Graph undirected = g.graph.Undirected();
    std::printf("\n%s: |V|=%lld |E|=%lld (undirected closure for WCC: "
                "|E|=%lld)\n",
                g.name.c_str(), (long long)g.graph.num_vertices(),
                (long long)g.graph.num_edges(),
                (long long)undirected.num_edges());
    struct AlgoRuns {
      const char* name;
      std::map<PushPullMode, ModeRuns> runs;
    };
    std::vector<AlgoRuns> algos;
    {
      std::vector<double> ranks;
      algos.push_back({"pagerank", RunModes(g.graph,
                                            PageRank(kPageRankTolerance),
                                            reps, &ranks)});
      std::vector<int64_t> distances, labels;
      algos.push_back({"sssp", RunModes(g.graph, Sssp(0), reps, &distances)});
      algos.push_back({"wcc", RunModes(undirected, Wcc(), reps, &labels)});
    }
    for (const AlgoRuns& a : algos) {
      std::printf("\n%s %s, per superstep (slowest worker's compute):\n",
                  g.name.c_str(), a.name);
      PrintSupersteps(a.runs);
      double median[3];
      for (int i = 0; i < 3; ++i) {
        const ModeRuns& runs = a.runs.at(kModes[i]);
        median[i] = MedianOf(runs.seconds);
        BenchCell cell;
        cell.name = std::string("ablation_pushpull/") + g.name + "/" +
                    a.name + "/" + ModeName(kModes[i]);
        cell.unit = "s";
        cell.median = median[i];
        cell.min = *std::min_element(runs.seconds.begin(), runs.seconds.end());
        cell.max = *std::max_element(runs.seconds.begin(), runs.seconds.end());
        cell.reps = static_cast<int>(runs.seconds.size());
        cell.counters["supersteps"] = runs.last().supersteps;
        cell.counters["engine.pull_supersteps"] =
            runs.last().Metric("engine.pull_supersteps");
        cell.counters["pregel.messages_sent"] =
            runs.last().Metric("pregel.messages_sent");
        report.Add(std::move(cell));
      }
      const RunStats& auto_stats = a.runs.at(PushPullMode::kAuto).last();
      summary.AddRow({g.name, a.name, TablePrinter::Seconds(median[0]),
                      TablePrinter::Seconds(median[1]),
                      TablePrinter::Seconds(median[2]),
                      TablePrinter::Ratio(median[0] / median[1]),
                      std::to_string(
                          auto_stats.Metric("engine.pull_supersteps")),
                      std::to_string(auto_stats.supersteps)});
    }
    // PageRank's forced runs, calibrated repetition by repetition.
    const ModeRuns& push = algos[0].runs.at(PushPullMode::kForcePush);
    const ModeRuns& pull = algos[0].runs.at(PushPullMode::kForcePull);
    std::vector<double> push_ns, gather_ns, alphas;
    for (int rep = 0; rep < reps; ++rep) {
      const Calibration c =
          Calibrate(push.stats[rep], pull.stats[rep], g.graph.num_edges());
      push_ns.push_back(c.push_ns_per_message);
      gather_ns.push_back(c.gather_ns_per_in_edge);
      alphas.push_back(c.alpha());
    }
    const Spread push_spread = SpreadOf(push_ns);
    const Spread gather_spread = SpreadOf(gather_ns);
    const Spread alpha = SpreadOf(alphas);
    std::printf("\n%s PageRank calibration, median [min, max] of %d: "
                "%.1f [%.1f, %.1f] ns per pushed message, %.2f [%.2f, %.2f] "
                "ns per gathered in-edge (compute thread-time):\n"
                "  alpha = %.1f [%.1f, %.1f] (kPullCostRatio = %lld: pull "
                "once the broadcasters' out-edges reach |E|/%lld)\n",
                g.name.c_str(), reps, push_spread.median, push_spread.min,
                push_spread.max, gather_spread.median, gather_spread.min,
                gather_spread.max, alpha.median, alpha.min, alpha.max,
                (long long)kPullCostRatio, (long long)kPullCostRatio);
    for (const auto& [what, spread] :
         {std::pair<const char*, Spread>{"push_ns_per_message", push_spread},
          {"gather_ns_per_in_edge", gather_spread}}) {
      BenchCell cell;
      cell.name = std::string("ablation_pushpull/") + g.name + "/" + what;
      cell.unit = "ns";
      cell.median = spread.median;
      cell.min = spread.min;
      cell.max = spread.max;
      cell.reps = reps;
      cell.counters["alpha_milli"] = static_cast<int64_t>(alpha.median * 1000);
      cell.counters["alpha_min_milli"] = static_cast<int64_t>(alpha.min * 1000);
      cell.counters["alpha_max_milli"] = static_cast<int64_t>(alpha.max * 1000);
      report.Add(std::move(cell));
    }
  }

  std::printf("\ncomputation time, median of %d:\n", reps);
  summary.Print(std::cout);
  std::printf(
      "\npush/pull > 2x on PageRank re-checks the claim that pulling dense "
      "supersteps is at\nleast twice as fast as pushing them. An edge share "
      "lags one superstep: the first\nexpansion of a wavefront (SSSP) is "
      "decided from the frontier before it.\n");

  if (!args.json_path.empty()) {
    report.env = CaptureBenchEnvironment();
    if (!report.WriteJson(args.json_path)) return 1;
    std::printf("\nbench report written to %s (%zu cells)\n",
                args.json_path.c_str(), report.cells.size());
  }
  return 0;
}
