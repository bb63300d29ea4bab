#ifndef SERIGRAPH_BENCH_HARNESS_H_
#define SERIGRAPH_BENCH_HARNESS_H_

// Unified bench output path: every bench binary — Google Benchmark micro
// benches (via micro_main.h) and the fig6-style paper-reproduction grids
// (via fig6_common.h) — funnels its results through a BenchReport, which
// serializes to a schema-versioned BENCH.json that scripts/bench_compare.py
// can diff against a committed baseline with noise-aware thresholds.
//
// The report embeds an environment fingerprint (CPU model, core count,
// frequency governor, compiler, sanitizer flags, perf-counter
// availability) so a comparison across machines or build types fails
// loudly instead of producing a meaningless "regression".
//
// Schema history:
//   1  raw Google Benchmark --benchmark_out dumps (BENCH_pr4 references
//      in older docs) — heterogeneous, no fingerprint; none are kept.
//   2  this format: {schema_version, environment, cells[]} with one cell
//      per (bench, config) pair and normalized units.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace serigraph {

/// Machine/build fingerprint captured at report-assembly time.
struct BenchEnvironment {
  std::string cpu_model;      // /proc/cpuinfo "model name" (or "unknown")
  int cores = 0;              // online hardware threads
  std::string governor;       // cpufreq scaling governor (or "unknown")
  std::string compiler;       // e.g. "gcc 12.2.0", "clang 16.0.6"
  std::string build_type;     // "release" (NDEBUG) or "debug"
  std::string sanitizers;     // comma list, or "none"
  bool perf_hw = false;       // hardware perf counters usable right now
  std::string perf_fallback;  // why not, when perf_hw is false
};

/// Probes the current machine and build. The perf probe opens (and
/// closes) a real counter group on the calling thread; it never fails —
/// denial is reported through perf_hw / perf_fallback.
BenchEnvironment CaptureBenchEnvironment();

/// One measured configuration: the unit of comparison for
/// bench_compare.py. `name` must be stable across runs (it is the join
/// key); `median` over `reps` repetitions is the compared statistic,
/// min/max bound the observed spread.
struct BenchCell {
  std::string name;
  std::string unit = "ns";  // "ns" | "us" | "ms" | "s"
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
  int reps = 0;
  /// Optional attached observations (perf counters, message totals...).
  /// Informational: compare never gates on counters, only on `median`.
  std::map<std::string, int64_t> counters;
  /// Peak resident set during this cell's runs, when sampled (else 0).
  int64_t peak_rss_kb = 0;
};

struct BenchReport {
  static constexpr int kSchemaVersion = 2;

  BenchEnvironment env;
  std::vector<BenchCell> cells;

  void Add(BenchCell cell) { cells.push_back(std::move(cell)); }

  std::string ToJson() const;

  /// Serializes to `path`; returns false (after logging to stderr) on I/O
  /// failure. A bench should not die just because the report path is bad.
  bool WriteJson(const std::string& path) const;
};

/// Median of `samples` (by copy; the input order is irrelevant).
/// Returns 0 for an empty vector.
double MedianOf(std::vector<double> samples);

/// Flags shared by every bench binary. Unrecognized arguments pass
/// through untouched (the Google Benchmark binaries forward them to the
/// library; the fig6 grids reject them).
struct BenchArgs {
  std::string json_path;       // --json=FILE -> write BENCH.json here
  bool perf_counters = false;  // --perf-counters
  std::string trace_out;       // --trace-out=FILE (fig6 grids only)
  int reps = 0;                // --reps=N (fig6 grids; 0 = single run)
  bool help = false;

  /// argv-style view of the unconsumed arguments (trailing nullptr
  /// included), backed by `storage`.
  std::vector<char*> passthrough;
  std::vector<std::string> storage;
};

BenchArgs ParseBenchArgs(int argc, char** argv);

}  // namespace serigraph

#endif  // SERIGRAPH_BENCH_HARNESS_H_
