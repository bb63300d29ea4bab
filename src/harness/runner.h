#ifndef SERIGRAPH_HARNESS_RUNNER_H_
#define SERIGRAPH_HARNESS_RUNNER_H_

#include <utility>
#include <vector>

#include "common/logging.h"
#include "pregel/engine.h"

namespace serigraph {

/// Shared run configuration for benches: one cell of the paper's
/// (algorithm x dataset x workers x technique) evaluation grid.
struct RunConfig {
  SyncMode sync_mode = SyncMode::kNone;
  ComputationModel model = ComputationModel::kAsync;
  int num_workers = 16;
  int partitions_per_worker = 0;  // 0 = |W| (paper default)
  int compute_threads_per_worker = 2;
  NetworkOptions network;
  int64_t message_batch_bytes = 64 * 1024;
  int max_supersteps = 100000;
  int64_t superstep_overhead_us = 0;
  uint64_t partition_seed = 0;
  bool record_history = false;
  /// Runtime introspection (beacons + watchdog + contention profile).
  bool introspect = false;
  WatchdogOptions watchdog;
  /// Hardware perf counters + per-superstep memory sampling
  /// (docs/PROFILING.md); software fallback where perf is unavailable.
  bool perf_counters = false;
  /// Push/pull strategy for combinable BSP programs (docs/PERF.md).
  PushPullMode push_pull = PushPullMode::kAuto;
};

inline EngineOptions ToEngineOptions(const RunConfig& config) {
  EngineOptions opts;
  opts.model = config.model;
  opts.sync_mode = config.sync_mode;
  opts.num_workers = config.num_workers;
  opts.partitions_per_worker = config.partitions_per_worker;
  opts.compute_threads_per_worker = config.compute_threads_per_worker;
  opts.network = config.network;
  opts.message_batch_bytes = config.message_batch_bytes;
  opts.max_supersteps = config.max_supersteps;
  opts.superstep_overhead_us = config.superstep_overhead_us;
  opts.partition_seed = config.partition_seed;
  opts.record_history = config.record_history;
  opts.introspect = config.introspect;
  opts.watchdog = config.watchdog;
  opts.perf_counters = config.perf_counters;
  opts.push_pull = config.push_pull;
  return opts;
}

/// Runs `program` on `graph` under `config`; dies on engine errors.
/// If `values_out` is non-null the final vertex values are moved there.
template <typename Program>
RunStats RunProgram(const Graph& graph, const Program& program,
                    const RunConfig& config,
                    std::vector<typename Program::VertexValue>* values_out =
                        nullptr) {
  Engine<Program> engine(&graph, ToEngineOptions(config));
  auto result = engine.Run(program);
  SG_CHECK_OK(result.status());
  if (values_out != nullptr) *values_out = std::move(result->values);
  return result->stats;
}

/// The default simulated network used by the paper-reproduction benches:
/// a datacenter-like 100us one-way latency plus a bandwidth term. See
/// DESIGN.md ("Substitutions") for why latency is modelled as delayed
/// visibility rather than sender blocking.
inline NetworkOptions BenchNetwork() {
  NetworkOptions network;
  network.one_way_latency_us = 100;
  network.per_kib_us = 4;
  return network;
}

}  // namespace serigraph

#endif  // SERIGRAPH_HARNESS_RUNNER_H_
