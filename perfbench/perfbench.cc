// Closed-loop job benchmark. For one workload it generates a small sample
// of stand-in graphs from the seed, runs a fixed number of jobs back to
// back through the public Engine API (one job in flight; the next is sent
// when the previous one returns, cycling over the graphs), checks every
// result, and prints one metric set:
//
//   --trace 0  end-to-end metrics; the engine's perf counters,
//              introspection and Chrome tracer are all off.
//   --trace 1  per-layer metrics; the first half of the jobs runs
//              untraced and the second half traced, so the tracing
//              overhead is measured within one process.
//
// perfbench/run.py builds this binary and is the entry point; the
// workload and metric lists live in BENCHMARK.json. The last line of
// stdout is the result object run.py validates and re-emits.
//
// Layers are measured from outside: the benchmark keeps a span around
// each of its calls into src/graph, src/pregel and src/verify (name,
// start, end, parent, job id) and reads the counters, histograms and
// per-(superstep, worker) timeline that Engine::Run returns in RunStats
// for src/pregel, src/sync and src/net.

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algos/coloring.h"
#include "algos/pagerank.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/partitioning.h"
#include "harness.h"
#include "harness/datasets.h"
#include "harness/runner.h"
#include "obs/memprof.h"
#include "obs/report.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "pregel/engine.h"
#include "verify/history.h"

namespace serigraph {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads

enum class Algorithm { kPageRank, kColoring };

struct Workload {
  const char* name;
  /// Why the workload is in the benchmark (its `why` in BENCHMARK.json).
  const char* why;
  Algorithm algorithm;
  /// StandInSpecs() entry whose average degree and gamma the graphs use.
  const char* shape;
  VertexId vertices;
  bool undirected;
  ComputationModel model;
  SyncMode sync;
  /// Graphs drawn from the seed per run. A run cycles its jobs over
  /// several power-law draws so its medians describe the graph family
  /// rather than one graph, and sets up once per draw (setup_s is the
  /// median over draws).
  int graphs;
  /// Typical steady-state job time (job_s) at kWorkers workers on a
  /// 4-core box. It only converts --seconds into a fixed job count: the
  /// count must not depend on how fast the jobs run, because resident
  /// memory grows with every job (see obs.rss_growth_kb_per_job) and
  /// peak_rss_mb has to repeat.
  double nominal_job_s;
};

const Workload kWorkloads[] = {
    {"pagerank-bsp",
     "Plain BSP PageRank, UK'-shaped 160k vertices: the compute core "
     "(push/pull, partition bins, store swap) does nearly all work, no "
     "sync technique; src/sync changes should not move it.",
     Algorithm::kPageRank, "UK'", 160000, false, ComputationModel::kBsp,
     SyncMode::kNone, 3, 0.85},
    {"coloring-audit",
     "AP greedy coloring under dual-layer token passing with the history "
     "recorded and checked (C1, C2, 1SR) per job; the only workload that "
     "runs src/verify and the recorder.",
     Algorithm::kColoring, "TW'", 32000, true, ComputationModel::kAsync,
     SyncMode::kDualLayerToken, 4, 0.65},
};

/// Every worker runs two threads, its compute thread and its comm thread
/// (which applies incoming batches while the compute thread runs), so two
/// workers keep the engine's threads within a 4-core box. At four workers
/// the eight threads contend for the cores and a preempted worker holds
/// up the rest at every barrier: on a shared 4-vCPU host the medians of
/// compute_s then spread by 25-64% from run to run.
constexpr int kWorkers = 2;
constexpr int kComputeThreads = 1;
constexpr int kThreadsPerWorker = kComputeThreads + 1;  // + the comm thread
constexpr int kPartitionsPerWorker = kWorkers;  // the Giraph default |W|
constexpr double kPageRankTolerance = 0.01;
/// Largest relative L1 distance (sum |x - ref| / sum ref) a PageRank job
/// may have from ReferencePageRank. The delta formulation stops
/// forwarding mass below the tolerance, so at tol 0.01 jobs land away
/// from the fixpoint: 0.116 on pagerank-bsp (0.077 under AP partition
/// locking) as measured when this bound was fixed. 0.15 leaves room for
/// scheduling variation and still fails a job that loses mass wholesale.
constexpr double kPageRankMaxRelL1 = 0.15;

// ---------------------------------------------------------------------------
// Spans

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One call the benchmark made into a layer. `name` is "<layer>.<call>".
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;  // index into the log, -1 for a root
  int job;     // job id, -1 for the run's set-up

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) / 1e9;
  }
};

std::string LayerOf(const char* span_name) {
  const char* dot = std::strchr(span_name, '.');
  return dot == nullptr ? std::string(span_name)
                        : std::string(span_name, dot);
}

/// In-memory span log, written out once the run ends. Spans nest through
/// an open stack. Every timing the benchmark reports is a span duration,
/// so untraced runs record spans too (two clock reads per call, the cost
/// of the timers they stand in for) and only skip writing them out.
class SpanLog {
 public:
  int Begin(const char* name, int job) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, NowNs(), 0, parent, job});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }
  const Span& at(int index) const { return spans_[index]; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Seconds of the first span called `name` in `job`, or 0.
  double SecondsOf(int job, const char* name) const {
    for (const Span& s : spans_) {
      if (s.job == job && std::strcmp(s.name, name) == 0) return s.seconds();
    }
    return 0.0;
  }

  /// Self time (duration minus the time covered by direct children) per
  /// layer, summed over every span of `job`.
  std::map<std::string, double> SelfSecondsByLayer(int job) const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_s[s.parent] += s.seconds();
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].job != job) continue;
      out[LayerOf(spans_[i].name)] += spans_[i].seconds() - child_s[i];
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int job)
      : log_(log), index_(log.Begin(name, job)) {}
  ~ScopedSpan() { log_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

// ---------------------------------------------------------------------------
// Samples and metrics

/// Median by linear interpolation, like Python's statistics.median. A
/// failed job contributes +inf, so failures can only push it up.
double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Non-finite values (a failed job's time) as the largest double, so
/// every JSON the benchmark writes stays valid while reading as
/// infinitely slow.
double Finite(double v) {
  return std::isfinite(v) ? v : std::numeric_limits<double>::max();
}

struct Metric {
  std::string unit;
  std::vector<double> samples;
  double value() const { return Median(samples); }
};

/// Insertion-ordered metric set (the order BENCHMARK.json lists them in).
class MetricSet {
 public:
  void Add(const std::string& name, const std::string& unit, double sample) {
    auto [it, inserted] = index_.try_emplace(name, metrics_.size());
    if (inserted) metrics_.push_back({name, {unit, {}}});
    metrics_[it->second].second.samples.push_back(sample);
  }
  const std::vector<std::pair<std::string, Metric>>& items() const {
    return metrics_;
  }
  double ValueOf(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? 0.0 : metrics_[it->second].second.value();
  }

 private:
  std::map<std::string, size_t> index_;
  std::vector<std::pair<std::string, Metric>> metrics_;
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// CPU time the hypervisor gave to other guests while this VM's vCPUs
/// were runnable (the "steal" column of /proc/stat, in USER_HZ ticks
/// summed over CPUs), and all CPU time; both 0 where unavailable.
struct CpuTicks {
  int64_t steal = 0;
  int64_t total = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  long long v[8] = {};
  if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    t.steal = v[7];
    for (long long x : v) t.total += x;
  }
  std::fclose(f);
  return t;
}

/// On a shared host, other guests take the CPU in bursts of seconds to
/// minutes, and a job caught in one runs up to 1.6x slower (a preempted
/// worker holds up every other worker at the barrier or the token). Waits
/// until a 200 ms window passes with at most one tick of steal, or
/// `budget_s` is spent; returns the seconds waited.
double WaitForQuietHost(double budget_s) {
  constexpr auto kWindow = std::chrono::milliseconds(200);
  const auto start = Clock::now();
  for (double waited = 0.0; waited < budget_s;
       waited = std::chrono::duration<double>(Clock::now() - start).count()) {
    const int64_t before = ReadCpuTicks().steal;
    std::this_thread::sleep_for(kWindow);
    if (ReadCpuTicks().steal - before <= 1) break;
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPUs this process may run on (what `nproc` prints).
int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------------
// Inputs and jobs

/// One generated graph with its seed (for generation and partitioning)
/// and oracle, prepared before the first job and outside every timed span.
struct Input {
  uint64_t seed = 0;
  Graph graph;
  std::vector<double> reference_pagerank;
  double m_boundary_share = 0.0;
};

/// One job as the run log keeps it: what ran, when, and how much of the
/// host's CPU time other guests took meanwhile.
struct JobRecord {
  int job = 0;
  int graph = 0;
  bool traced = false;
  bool ok = false;
  bool kept = false;
  double start_s = 0.0;  // since the first job started
  double compute_s = 0.0;
  double job_s = 0.0;
  double cpu_s = 0.0;
  double steal_share = 0.0;
};

/// What one job produced, beyond its spans.
struct JobOutcome {
  bool ok = false;
  std::string failure;
  double job_s = 0.0;
  double compute_s = 0.0;
  double cpu_s = 0.0;
  double check_s = 0.0;
  int64_t transactions = 0;
  int64_t trace_events = 0;
  RunStats stats;
};

EngineOptions JobOptions(const Workload& w, bool traced) {
  EngineOptions opts;
  opts.model = w.model;
  opts.sync_mode = w.sync;
  opts.num_workers = kWorkers;
  opts.partitions_per_worker = kPartitionsPerWorker;
  opts.compute_threads_per_worker = kComputeThreads;
  opts.network = BenchNetwork();
  opts.record_history = w.algorithm == Algorithm::kColoring;
  opts.introspect = traced;
  opts.perf_counters = traced;
  return opts;
}

std::string CheckValues(const Input& in, const std::vector<double>& ranks) {
  if (ranks.size() != in.reference_pagerank.size()) {
    return "pagerank returned the wrong number of values";
  }
  double diff = 0.0;
  double total = 0.0;
  for (size_t v = 0; v < ranks.size(); ++v) {
    diff += std::fabs(ranks[v] - in.reference_pagerank[v]);
    total += in.reference_pagerank[v];
  }
  const double rel_l1 = diff / total;
  if (!(rel_l1 <= kPageRankMaxRelL1)) {
    return "pagerank relative L1 " + std::to_string(rel_l1) + " > " +
           std::to_string(kPageRankMaxRelL1);
  }
  return "";
}

std::string CheckValues(const Input& in, const std::vector<int64_t>& colors) {
  return IsProperColoring(in.graph, colors) ? "" : "coloring is not proper";
}

/// Runs one job: partition, construct the engine, run it, and (when the
/// history is recorded) check it. Everything inside the `bench.job` span
/// is what a caller waits for; the value check against the oracle runs
/// after it.
template <typename Program>
JobOutcome RunJob(const Workload& w, const Input& in, const Program& program,
                  int job, bool traced, SpanLog& spans) {
  JobOutcome out;
  const EngineOptions opts = JobOptions(w, traced);
  if (traced) {
    Tracer::Get().Reset();  // count this job's events only
    Tracer::Get().Enable();
  }
  std::vector<typename Program::VertexValue> values;
  std::optional<HistoryCheck> history_check;
  Status status;
  int job_span = -1;
  int check_span = -1;
  const double cpu0 = CpuSeconds();
  {
    ScopedSpan job_scope(spans, "bench.job", job);
    job_span = job_scope.index();
    Partitioning partitioning;
    {
      ScopedSpan span(spans, "graph.partition", job);
      partitioning = Partitioning::Hash(in.graph.num_vertices(), kWorkers,
                                        kPartitionsPerWorker, in.seed);
    }
    std::optional<Engine<Program>> engine;
    {
      ScopedSpan span(spans, "pregel.engine_init", job);
      engine.emplace(&in.graph, opts);
    }
    {
      ScopedSpan span(spans, "pregel.use_partitioning", job);
      status = engine->UsePartitioning(std::move(partitioning));
    }
    std::shared_ptr<HistoryRecorder> history;
    if (status.ok()) {
      ScopedSpan span(spans, "pregel.run", job);
      auto result = engine->Run(program);
      status = result.status();
      if (result.ok()) {
        out.stats = std::move(result->stats);
        values = std::move(result->values);
        history = std::move(result->history);
      }
    }
    if (history != nullptr) {
      ScopedSpan span(spans, "verify.check", job);
      check_span = span.index();
      history_check = CheckHistory(in.graph, history->TakeRecords());
    }
    ScopedSpan span(spans, "pregel.engine_destroy", job);
    history.reset();
    engine.reset();
  }
  out.cpu_s = CpuSeconds() - cpu0;
  out.job_s = spans.at(job_span).seconds();
  if (check_span >= 0) out.check_s = spans.at(check_span).seconds();
  if (traced) {
    Tracer::Get().Disable();
    out.trace_events = Tracer::Get().event_count();
  }
  out.compute_s = out.stats.computation_seconds;

  if (!status.ok()) {
    out.failure = status.ToString();
  } else if (!out.stats.converged) {
    out.failure = "did not converge";
  } else {
    out.failure = CheckValues(in, values);
    if (out.failure.empty() && history_check.has_value()) {
      out.transactions = history_check->num_transactions;
      if (!history_check->ok()) {
        out.failure = "history check failed (C1/C2/1SR)";
      }
    }
  }
  out.ok = out.failure.empty();
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer attribution of one traced job

double SumSeconds(const std::vector<SuperstepSample>& timeline,
                  int64_t SuperstepSample::* field) {
  return static_cast<double>(Total(timeline, field)) / 1e6;
}

void AddLayerMetrics(const SpanLog& spans, int job, const JobOutcome& out,
                     MetricSet& m) {
  const RunStats& s = out.stats;
  const auto metric = [&s](const char* name) {
    return static_cast<double>(s.Metric(name));
  };
  // Timeline phases summed over (superstep, worker) rows. Fork wait is
  // nested inside compute; barrier and flush wait are beside it.
  const double compute = SumSeconds(s.timeline, &SuperstepSample::compute_us);
  const double fork = SumSeconds(s.timeline, &SuperstepSample::fork_wait_us);
  const double barrier =
      SumSeconds(s.timeline, &SuperstepSample::barrier_wait_us);
  const double flush = SumSeconds(s.timeline, &SuperstepSample::flush_wait_us);

  m.Add("graph.partition_s", "s", spans.SecondsOf(job, "graph.partition"));

  // src/pregel
  m.Add("pregel.compute_self_s", "s", (compute - fork) / kWorkers);
  m.Add("pregel.vertex_executions", "count",
        metric("pregel.vertex_executions"));
  m.Add("pregel.messages_sent", "count", metric("pregel.messages_sent"));
  m.Add("pregel.local_sends", "count", metric("pregel.local_sends"));
  m.Add("engine.pull_supersteps", "count", metric("engine.pull_supersteps"));
  m.Add("store.bin_flushes", "count", metric("store.bin_flushes"));
  m.Add("store.swap_us.p95", "us", metric("store.swap_us.p95"));
  m.Add("store.append_ns.p50", "ns", metric("store.append_ns.p50"));
  m.Add("store.append_ns.p95", "ns", metric("store.append_ns.p95"));
  m.Add("pregel.flush_wait_s", "s", flush / kWorkers);
  m.Add("pregel.barrier_wait_s", "s", barrier / kWorkers);
  m.Add("engine.barrier_wait_us.p95", "us",
        metric("engine.barrier_wait_us.p95"));
  m.Add("pregel.supersteps", "count", static_cast<double>(s.supersteps));
  m.Add("pregel.engine_overhead_s", "s",
        out.job_s - out.compute_s - out.check_s);
  m.Add("pregel.unattributed_share", "1",
        out.compute_s > 0.0
            ? 1.0 - (compute + barrier + flush) / (kWorkers * out.compute_s)
            : 0.0);

  // src/sync
  m.Add("sync.fork_wait_s", "s", fork / kWorkers);
  m.Add("sync.fork_wait_us.p50", "us", metric("sync.fork_wait_us.p50"));
  m.Add("sync.fork_wait_us.p95", "us", metric("sync.fork_wait_us.p95"));
  m.Add("sync.fork_requests", "count", metric("sync.fork_requests"));
  m.Add("sync.fork_transfers", "count", metric("sync.fork_transfers"));
  m.Add("sync.fork_transfers_cross_worker", "count",
        metric("sync.fork_transfers_cross_worker"));
  m.Add("sync.handover_flushes", "count", metric("sync.handover_flushes"));
  m.Add("sync.num_forks", "count", metric("sync.num_forks"));
  const double transfers = metric("sync.fork_transfers");
  m.Add("sync.executions_per_transfer", "1",
        transfers > 0.0 ? metric("pregel.vertex_executions") / transfers
                        : 0.0);
  m.Add("sync.token_hold_us.p95", "us", metric("sync.token_hold_us.p95"));
  m.Add("sync.global_token_passes", "count",
        metric("sync.global_token_passes"));
  m.Add("sync.local_token_passes", "count",
        metric("sync.local_token_passes"));

  // src/net
  m.Add("net.control_messages", "count", metric("net.control_messages"));
  m.Add("net.wire_messages", "count", metric("net.wire_messages"));
  m.Add("net.batch_delay_us.p95", "us", metric("net.batch_delay_us.p95"));
  m.Add("net.peak_inbox_depth", "count", metric("net.peak_inbox_depth"));
  m.Add("net.wire_bytes", "B", metric("net.wire_bytes"));
  m.Add("net.data_batches", "count", metric("net.data_batches"));
  m.Add("pregel.flushes", "count", metric("pregel.flushes"));
  const double sent = metric("pregel.messages_sent");
  m.Add("net.bytes_per_message", "B",
        sent > 0.0 ? metric("net.wire_bytes") / sent : 0.0);
  m.Add("net.seq_gaps", "count", metric("net.seq_gaps"));
  m.Add("net.dup_dropped", "count", metric("net.dup_dropped"));

  // src/verify
  m.Add("verify.check_s", "s", out.check_s);
  m.Add("verify.transactions", "count",
        static_cast<double>(out.transactions));

  // src/obs: which phase burns the CPU (task clock works under the
  // software fallback too).
  const auto task_clock_s = [&s](const std::string& phase) {
    auto it = s.perf_phases.find(phase + ".task_clock_ns");
    return it == s.perf_phases.end() ? 0.0
                                     : static_cast<double>(it->second) / 1e9;
  };
  m.Add("perf.compute.task_clock_s", "s", task_clock_s("compute"));
  m.Add("perf.fork_wait.task_clock_s", "s", task_clock_s("fork_wait"));
  m.Add("perf.flush_wait.task_clock_s", "s", task_clock_s("flush_wait"));
  m.Add("perf.barrier.task_clock_s", "s", task_clock_s("barrier"));
  m.Add("perf.ctx_switches", "count", metric("perf.ctx_switches"));
  m.Add("perf.minor_faults", "count", metric("perf.minor_faults"));
  m.Add("obs.trace_events", "count", static_cast<double>(out.trace_events));

  std::map<std::string, double> self = spans.SelfSecondsByLayer(job);
  for (const char* layer : {"bench", "graph", "pregel", "verify"}) {
    m.Add(std::string("self.") + layer + "_s", "s", self[layer]);
  }
}

// ---------------------------------------------------------------------------
// Output

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0') return false;
    } else if (key == "--trace") {
      args->trace = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0') return false;
    } else if (key == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1) && !args->out_dir.empty();
}

void PrintTable(const char* title, const MetricSet& metrics) {
  std::printf("\n%s\n  %-34s %16s %-6s %5s %14s %14s\n", title, "metric",
              "median", "unit", "n", "min", "max");
  for (const auto& [name, metric] : metrics.items()) {
    const auto [lo, hi] =
        std::minmax_element(metric.samples.begin(), metric.samples.end());
    std::printf("  %-34s %16.6g %-6s %5zu %14.6g %14.6g\n", name.c_str(),
                metric.value(), metric.unit.c_str(), metric.samples.size(),
                *lo, *hi);
  }
}

/// The result line: every digit of each median.
std::string ResultJson(bool correct, int attempted, int failed,
                       const MetricSet& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics.items()) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", Finite(metric.value()));
    out += std::string(first ? "" : ", ") + "\"" + name +
           "\": {\"value\": " + value + ", \"unit\": \"" + metric.unit +
           "\"}";
    first = false;
  }
  return out + "}}";
}

/// Full report: environment fingerprint, the generated inputs, every
/// metric with its samples, and (traced runs) every span.
std::string ReportJson(const Args& args, const Workload& w,
                       const std::vector<Input>& inputs,
                       const BenchEnvironment& env, int nproc,
                       double steal_share, int discarded,
                       const std::vector<JobRecord>& jobs,
                       const MetricSet& metrics, const SpanLog& spans) {
  JsonWriter j;
  j.BeginObject();
  j.Key("workload").Value(w.name);
  j.Key("why").Value(w.why);
  j.Key("seed").Value(static_cast<int64_t>(args.seed));
  j.Key("trace").Value(args.trace);
  j.Key("environment").BeginObject();
  j.Key("cpu_model").Value(env.cpu_model);
  j.Key("cores").Value(env.cores);
  j.Key("nproc").Value(nproc);
  j.Key("governor").Value(env.governor);
  j.Key("compiler").Value(env.compiler);
  j.Key("build_type").Value(env.build_type);
  j.Key("sanitizers").Value(env.sanitizers);
  j.Key("perf_hw").Value(env.perf_hw);
  j.Key("perf_fallback").Value(env.perf_fallback);
  j.Key("workers").Value(kWorkers);
  j.Key("compute_threads_per_worker").Value(kComputeThreads);
  j.Key("steal_share").Value(steal_share);
  j.Key("discarded_timings").Value(discarded);
  j.EndObject();
  j.Key("graphs").BeginArray();
  for (const Input& in : inputs) {
    j.BeginObject();
    j.Key("seed").Value(static_cast<int64_t>(in.seed));
    j.Key("vertices").Value(static_cast<int64_t>(in.graph.num_vertices()));
    j.Key("edges").Value(in.graph.num_edges());
    j.Key("m_boundary_share").Value(in.m_boundary_share);
    j.EndObject();
  }
  j.EndArray();
  j.Key("jobs").BeginArray();
  for (const JobRecord& r : jobs) {
    j.BeginObject();
    j.Key("job").Value(r.job);
    j.Key("graph").Value(r.graph);
    j.Key("traced").Value(r.traced);
    j.Key("ok").Value(r.ok);
    j.Key("kept").Value(r.kept);
    j.Key("start_s").Value(r.start_s);
    j.Key("compute_s").Value(r.compute_s);
    j.Key("job_s").Value(r.job_s);
    j.Key("cpu_s").Value(r.cpu_s);
    j.Key("steal_share").Value(r.steal_share);
    j.EndObject();
  }
  j.EndArray();
  j.Key("metrics").BeginObject();
  for (const auto& [name, metric] : metrics.items()) {
    j.Key(name).BeginObject();
    j.Key("value").Value(Finite(metric.value()));
    j.Key("unit").Value(metric.unit);
    j.Key("samples").BeginArray();
    for (double s : metric.samples) j.Value(Finite(s));
    j.EndArray();
    j.EndObject();
  }
  j.EndObject();
  if (args.trace == 1) {
    j.Key("spans").BeginArray();
    const int64_t t0 =
        spans.spans().empty() ? 0 : spans.spans().front().start_ns;
    for (const Span& s : spans.spans()) {
      j.BeginObject();
      j.Key("name").Value(s.name);
      j.Key("layer").Value(LayerOf(s.name));
      j.Key("job").Value(s.job);
      j.Key("parent").Value(s.parent);
      j.Key("start_us").Value((s.start_ns - t0) / 1000);
      j.Key("end_us").Value((s.end_ns - t0) / 1000);
      j.EndObject();
    }
    j.EndArray();
  }
  j.EndObject();
  return j.str();
}

// ---------------------------------------------------------------------------
// The run

/// Generates and builds one graph, each step in its own span.
Graph BuildGraph(const Workload& w, const DatasetSpec& spec, uint64_t seed,
                 SpanLog& spans) {
  ScopedSpan setup(spans, "bench.setup", -1);
  EdgeList edges;
  {
    ScopedSpan span(spans, "graph.generate", -1);
    edges = PowerLawChungLu(w.vertices, spec.avg_degree, spec.gamma, seed);
  }
  StatusOr<Graph> graph = Status::Internal("not built");
  {
    ScopedSpan span(spans, "graph.build", -1);
    graph = Graph::FromEdgeList(edges);
  }
  SG_CHECK_OK(graph.status());
  if (!w.undirected) return std::move(graph).value();
  ScopedSpan span(spans, "graph.undirected", -1);
  return graph->Undirected();
}

template <typename Program>
int RunWorkload(const Args& args, const Workload& w, const Program& program) {
  const DatasetSpec spec = FindSpec(w.shape);
  const BenchEnvironment env = CaptureBenchEnvironment();
  const int nproc = UsableCpus();
  const bool traced_run = args.trace == 1;
  std::printf("workload %s (seed %llu, %s run): %s\n", w.name,
              static_cast<unsigned long long>(args.seed),
              traced_run ? "traced" : "untraced", w.why);
  std::printf("shape: %d workers x (%d compute + 1 comm) threads on "
              "nproc=%d%s\n",
              kWorkers, kComputeThreads, nproc,
              kWorkers * kThreadsPerWorker > nproc ? " (OVERSUBSCRIBED)" : "");
  std::printf("environment: cpu=\"%s\" cores=%d governor=%s compiler=\"%s\" "
              "build=%s sanitizers=%s perf_hw=%s%s%s\n",
              env.cpu_model.c_str(), env.cores, env.governor.c_str(),
              env.compiler.c_str(), env.build_type.c_str(),
              env.sanitizers.c_str(), env.perf_hw ? "yes" : "no",
              env.perf_hw ? "" : " fallback=", env.perf_fallback.c_str());

  SpanLog spans;
  MetricSet e2e;
  MetricSet layer;

  // Set-up: one timed build per graph; setup_s is their median.
  std::vector<Input> inputs(static_cast<size_t>(w.graphs));
  uint64_t seed_state = args.seed;
  for (Input& in : inputs) {
    in.seed = SplitMix64(&seed_state);
    const size_t first = spans.spans().size();
    in.graph = BuildGraph(w, spec, in.seed, spans);
    double build_s = 0.0;
    for (size_t i = first; i < spans.spans().size(); ++i) {
      const Span& s = spans.spans()[i];
      if (std::strcmp(s.name, "bench.setup") == 0) {
        e2e.Add("setup_s", "s", s.seconds());
      } else if (std::strcmp(s.name, "graph.generate") == 0) {
        layer.Add("graph.generate_s", "s", s.seconds());
      } else {
        build_s += s.seconds();  // graph.build, graph.undirected
      }
    }
    layer.Add("graph.build_s", "s", build_s);
  }

  // Oracles and input properties, outside every timed span.
  for (Input& in : inputs) {
    if (w.algorithm == Algorithm::kPageRank) {
      in.reference_pagerank =
          ReferencePageRank(in.graph, kPageRankTolerance * 0.1);
    }
    ScopedSpan span(spans, "graph.boundary_info", -1);
    const BoundaryInfo boundary(
        in.graph, Partitioning::Hash(in.graph.num_vertices(), kWorkers,
                                     kPartitionsPerWorker, in.seed));
    const int64_t* counts = boundary.counts();
    in.m_boundary_share =
        static_cast<double>(
            counts[static_cast<int>(VertexLocality::kRemoteBoundary)] +
            counts[static_cast<int>(VertexLocality::kMixedBoundary)]) /
        static_cast<double>(in.graph.num_vertices());
    std::printf("graph %llu: %lld vertices, %lld edges, m-boundary share "
                "%.6f\n",
                static_cast<unsigned long long>(in.seed),
                static_cast<long long>(in.graph.num_vertices()),
                static_cast<long long>(in.graph.num_edges()),
                in.m_boundary_share);
  }

  // The closed loop over the graphs. The first job on each graph is a
  // warm-up: validated and counted, never timed. The job count is fixed
  // by --seconds, not by elapsed time; a deadline at 1.2x --seconds,
  // retries included, only bounds a run on a much slower or busier host
  // (jobs it cuts off are not run). A traced run times its first half
  // untraced and traces the second half, so the untraced half's memory
  // growth is not mixed up with the tracer's buffers.
  const int per_graph = std::max(
      1, static_cast<int>(std::lround(args.seconds /
                                      (w.graphs * w.nominal_job_s))));
  const int untraced_jobs =
      w.graphs * (traced_run ? std::max(1, per_graph / 2) : per_graph);
  const int timed_jobs = traced_run ? 2 * untraced_jobs : untraced_jobs;
  const int warmups = w.graphs;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(1200 * args.seconds);
  // A timed job that lost more than kMaxStealShare of the CPU time to
  // other guests on the host keeps its place in attempted/failed but not
  // its timings: the same slot runs again, after a quiet window, while
  // this budget lasts. Failed jobs always keep their (infinite) times.
  constexpr double kMaxStealShare = 0.02;
  double retry_budget_s = args.seconds / 2.0;
  int discarded = 0;
  CpuTicks kept_ticks;
  bool stolen = false;
  constexpr double kFailed = std::numeric_limits<double>::infinity();
  int attempted = 0;
  int failed = 0;
  int untraced_attempted = 0;
  std::vector<double> untraced_compute;
  std::vector<double> traced_compute;
  MemoryStatus mem_after_warmup = {};
  MemoryStatus mem_after_untraced = {};
  std::optional<int64_t> peak_rss_kb;
  std::vector<JobRecord> records;
  const auto loop_start = Clock::now();
  for (int job = 0, slot = 0;
       slot < warmups + timed_jobs && Clock::now() < deadline;
       ++job) {
    const bool traced = slot >= warmups + untraced_jobs;
    const Input& in = inputs[static_cast<size_t>(slot) % inputs.size()];
    if (stolen) retry_budget_s -= WaitForQuietHost(retry_budget_s);
    const double start_s =
        std::chrono::duration<double>(Clock::now() - loop_start).count();
    const CpuTicks ticks0 = ReadCpuTicks();
    const JobOutcome out = RunJob(w, in, program, job, traced, spans);
    const CpuTicks ticks1 = ReadCpuTicks();
    const CpuTicks ticks = {ticks1.steal - ticks0.steal,
                            ticks1.total - ticks0.total};
    stolen = ticks.steal > kMaxStealShare * ticks.total;
    records.push_back({job, slot % static_cast<int>(inputs.size()), traced,
                       out.ok, false, start_s, out.compute_s, out.job_s,
                       out.cpu_s,
                       ticks.total > 0 ? static_cast<double>(ticks.steal) /
                                             static_cast<double>(ticks.total)
                                       : 0.0});
    ++attempted;
    if (!out.ok) {
      ++failed;
      std::printf("job %d FAILED: %s\n", job, out.failure.c_str());
    }
    // Peak memory after a fixed number of jobs, retries or not.
    if (attempted == warmups + timed_jobs) {
      peak_rss_kb = ReadMemoryStatus().peak_rss_kb;
    }
    if (slot < warmups) {
      mem_after_warmup = ReadMemoryStatus();
      ++slot;
      continue;
    }
    if (!traced) {
      ++untraced_attempted;
      mem_after_untraced = ReadMemoryStatus();
    }
    if (stolen && out.ok && retry_budget_s > 0.0) {
      retry_budget_s -= out.job_s;
      ++discarded;
      continue;
    }
    records.back().kept = true;
    kept_ticks.steal += ticks.steal;
    kept_ticks.total += ticks.total;
    if (!traced) {
      e2e.Add("compute_s", "s", out.ok ? out.compute_s : kFailed);
      e2e.Add("job_s", "s", out.ok ? out.job_s : kFailed);
      e2e.Add("cpu_s", "s", out.ok ? out.cpu_s : kFailed);
      untraced_compute.push_back(out.ok ? out.compute_s : kFailed);
    } else {
      traced_compute.push_back(out.ok ? out.compute_s : kFailed);
      AddLayerMetrics(spans, job, out, layer);
    }
    ++slot;
  }
  if (!peak_rss_kb.has_value()) peak_rss_kb = ReadMemoryStatus().peak_rss_kb;
  e2e.Add("peak_rss_mb", "MiB", static_cast<double>(*peak_rss_kb) / 1024.0);
  e2e.Add("success_ratio", "1",
          static_cast<double>(attempted - failed) / attempted);

  // Resident memory the untraced jobs left behind, per job: about 1 MiB
  // on every workload, 3-7 MiB with the history recorder. Part of it is
  // FlightRecorder::RingForThisThread keeping a 64 KiB ring for every
  // thread ever created (each job starts eight). Reported, not worked
  // around; the fixed job count keeps peak_rss_mb repeatable despite it.
  const double rss_growth_kb =
      untraced_attempted == 0
          ? 0.0
          : static_cast<double>(mem_after_untraced.rss_kb -
                                mem_after_warmup.rss_kb) /
                untraced_attempted;
  double edges = 0.0;
  double m_boundary = 0.0;
  for (const Input& in : inputs) {
    edges += static_cast<double>(in.graph.num_edges()) / inputs.size();
    m_boundary += in.m_boundary_share / inputs.size();
  }
  layer.Add("graph.edges", "count", edges);
  layer.Add("graph.m_boundary_share", "1", m_boundary);
  layer.Add("obs.rss_growth_kb_per_job", "KiB", rss_growth_kb);
  if (traced_run) {
    const double base = Median(untraced_compute);
    layer.Add("obs.trace_overhead", "1",
              base > 0.0 ? Median(traced_compute) / base - 1.0 : 0.0);
  }

  PrintTable("end-to-end (untraced jobs)", e2e);
  if (traced_run) {
    PrintTable("per-layer (traced jobs)", layer);
    const char* largest = "pregel.compute_self_s";
    for (const char* phase : {"sync.fork_wait_s", "pregel.flush_wait_s",
                              "pregel.barrier_wait_s"}) {
      if (layer.ValueOf(phase) > layer.ValueOf(largest)) largest = phase;
    }
    std::printf("largest phase per worker: %s (%.3f s)\n", largest,
                layer.ValueOf(largest));
  }
  const double steal_share =
      kept_ticks.total > 0 ? static_cast<double>(kept_ticks.steal) /
                                 static_cast<double>(kept_ticks.total)
                           : 0.0;
  std::printf("\njobs: %d attempted (%d warm-up), %d failed, %d timings "
              "discarded for host CPU steal\n"
              "host: %.1f%% of CPU time stolen during the kept jobs\n"
              "resident memory grew %.0f KiB per untraced job (64 KiB per "
              "engine thread of it is FlightRecorder rings never freed)\n",
              attempted, warmups, failed, discarded, 100.0 * steal_share,
              rss_growth_kb);

  // Write-out, after everything timed.
  mkdir(args.out_dir.c_str(), 0755);
  const std::string path = args.out_dir + "/" + w.name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           std::to_string(args.trace) + ".json";
  MetricSet all = e2e;
  for (const auto& [name, metric] : layer.items()) {
    for (double s : metric.samples) all.Add(name, metric.unit, s);
  }
  const Status s = WriteTextFile(
      path, ReportJson(args, w, inputs, env, nproc, steal_share, discarded,
                       records, all, spans));
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("report: %s\n", path.c_str());
  std::printf("%s\n", ResultJson(failed == 0, attempted, failed,
                                 traced_run ? layer : e2e)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace serigraph

int main(int argc, char** argv) {
  using namespace serigraph;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out DIR\n");
    return 2;
  }
  for (const Workload& w : kWorkloads) {
    if (args.workload != w.name) continue;
    switch (w.algorithm) {
      case Algorithm::kPageRank:
        return RunWorkload(args, w, PageRank(kPageRankTolerance));
      case Algorithm::kColoring:
        return RunWorkload(args, w, GreedyColoring());
    }
  }
  std::fprintf(stderr, "perfbench: unknown workload %s\n",
               args.workload.c_str());
  return 2;
}
