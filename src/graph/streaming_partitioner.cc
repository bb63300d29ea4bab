#include "graph/streaming_partitioner.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace serigraph {

Partitioning StreamingGreedyPartition(const Graph& graph,
                                      const StreamingPartitionOptions& opts) {
  SG_CHECK_GT(opts.num_workers, 0);
  const int ppw = opts.partitions_per_worker > 0 ? opts.partitions_per_worker
                                                 : opts.num_workers;
  const int num_partitions = opts.num_workers * ppw;
  const VertexId n = graph.num_vertices();
  const double capacity =
      std::max(1.0, opts.balance_slack * static_cast<double>(n) /
                        static_cast<double>(num_partitions));

  // Streaming order: natural or a seeded permutation.
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (opts.seed != 0) {
    Rng rng(opts.seed);
    for (VertexId i = n - 1; i > 0; --i) {
      std::swap(order[i], order[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
    }
  }

  std::vector<PartitionId> assignment(n, kInvalidPartition);
  std::vector<int64_t> fill(num_partitions, 0);
  std::vector<int64_t> neighbor_count(num_partitions, 0);
  std::vector<PartitionId> touched;

  for (VertexId v : order) {
    touched.clear();
    auto tally = [&](auto nbrs) {
      for (VertexId u : nbrs) {
        const PartitionId p = assignment[u];
        if (p == kInvalidPartition) continue;
        if (neighbor_count[p] == 0) touched.push_back(p);
        ++neighbor_count[p];
      }
    };
    tally(graph.OutNeighbors(v));
    tally(graph.InNeighbors(v));

    // LDG score: |neighbors in p| * (1 - fill/capacity); ties and the
    // no-placed-neighbors case fall back to the emptiest partition.
    PartitionId best = kInvalidPartition;
    double best_score = -1.0;
    for (PartitionId p : touched) {
      if (static_cast<double>(fill[p]) >= capacity) continue;
      const double score =
          static_cast<double>(neighbor_count[p]) *
          (1.0 - static_cast<double>(fill[p]) / capacity);
      if (score > best_score) {
        best_score = score;
        best = p;
      }
    }
    if (best == kInvalidPartition || best_score <= 0.0) {
      // No usable neighbor partition: emptiest partition overall.
      best = 0;
      for (PartitionId p = 1; p < num_partitions; ++p) {
        if (fill[p] < fill[best]) best = p;
      }
    }
    assignment[v] = best;
    ++fill[best];
    for (PartitionId p : touched) neighbor_count[p] = 0;
  }

  std::vector<WorkerId> partition_to_worker(num_partitions);
  for (int p = 0; p < num_partitions; ++p) {
    partition_to_worker[p] = static_cast<WorkerId>(p % opts.num_workers);
  }
  auto partitioning = Partitioning::FromAssignment(std::move(assignment),
                                                   std::move(partition_to_worker));
  SG_CHECK_OK(partitioning.status());
  return std::move(partitioning).value();
}

int64_t CountCutEdges(const Graph& graph, const Partitioning& partitioning) {
  int64_t cut = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const PartitionId pv = partitioning.PartitionOf(v);
    for (VertexId u : graph.OutNeighbors(v)) {
      cut += partitioning.PartitionOf(u) != pv;
    }
  }
  return cut;
}

}  // namespace serigraph
