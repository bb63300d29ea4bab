#ifndef SERIGRAPH_OBS_TIMELINE_H_
#define SERIGRAPH_OBS_TIMELINE_H_

#include <cstdint>
#include <vector>

namespace serigraph {

/// One worker's accounting for one superstep: where its wall-clock time
/// went (the paper's Section 7.3 breakdown of computation time into
/// compute vs. synchronization costs) plus its work counters.
struct SuperstepSample {
  int superstep = 0;
  int worker = 0;
  /// Time spent executing vertex programs (RunPartitions).
  int64_t compute_us = 0;
  /// Time blocked on global superstep barriers.
  int64_t barrier_wait_us = 0;
  /// Time in the superstep-end flush + delivery-ack round trip.
  int64_t flush_wait_us = 0;
  /// Time blocked acquiring forks (distributed-locking techniques only).
  int64_t fork_wait_us = 0;
  /// Vertices this worker executed during the superstep.
  int64_t vertices_executed = 0;
  /// Messages this worker's vertices sent during the superstep.
  int64_t messages_sent = 0;
  /// Global frontier density at the end of this superstep, in eligible
  /// vertices per thousand (computed once in the barrier serial section;
  /// every worker's row for a superstep carries the same value).
  int64_t frontier_density_milli = 0;
  /// Out-edges of the next superstep's potential broadcasters per
  /// thousand of |E|: the eligible vertices' out-edges, plus the
  /// out-edges of this superstep's captured broadcasters standing in for
  /// their receivers. The push/pull switch's input (the next superstep
  /// captures iff it reaches 1000 / kPullCostRatio); 0 when the switch
  /// is off. Global, like the density.
  int64_t frontier_edge_share_milli = 0;
  /// Message-transfer mode this superstep ran in: 0 = push,
  /// 1 = pull-capture (broadcasts captured, not materialized),
  /// 2 = gather (pulling the previous superstep's captures),
  /// 3 = capture and gather at once. See docs/PERF.md.
  uint8_t pull_mode = 0;

  /// Hardware-counter deltas for the compute phase (perfcounters.h),
  /// populated only when EngineOptions::perf_counters is set AND
  /// perf_event_open is available; all zero with perf_hw_valid=false
  /// under the software fallback. Task-clock comes from the fallback
  /// too, so it is valid whenever perf_counters is on.
  int64_t compute_cycles = 0;
  int64_t compute_instructions = 0;
  int64_t compute_llc_loads = 0;
  int64_t compute_llc_misses = 0;
  int64_t compute_task_clock_ns = 0;
  bool perf_hw_valid = false;
};

/// Collects SuperstepSamples across workers with no cross-thread
/// contention: each worker appends to its own lane (one lane is only ever
/// touched by its owning worker thread), and Collect() merges lanes after
/// the workers have joined.
class TimelineRecorder {
 public:
  explicit TimelineRecorder(int num_workers);

  /// Appends `sample` to worker `sample.worker`'s lane. Must only be
  /// called from that worker's thread.
  void Append(const SuperstepSample& sample);

  /// All samples ordered by (superstep, worker). Call after workers join.
  std::vector<SuperstepSample> Collect() const;

 private:
  std::vector<std::vector<SuperstepSample>> lanes_;
};

/// Sum of a field over `timeline`, e.g. Total(t, &SuperstepSample::fork_wait_us).
int64_t Total(const std::vector<SuperstepSample>& timeline,
              int64_t SuperstepSample::* field);

}  // namespace serigraph

#endif  // SERIGRAPH_OBS_TIMELINE_H_
