#include "graph/partitioning.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace serigraph {

Partitioning Partitioning::Hash(VertexId num_vertices, int num_workers,
                                int partitions_per_worker, uint64_t seed) {
  SG_CHECK_GT(num_workers, 0);
  SG_CHECK_GT(partitions_per_worker, 0);
  const int num_partitions = num_workers * partitions_per_worker;

  Partitioning p;
  p.num_workers_ = num_workers;
  p.vertex_to_partition_.resize(num_vertices);
  for (VertexId v = 0; v < num_vertices; ++v) {
    uint64_t h = static_cast<uint64_t>(v) + seed * 0x9e3779b97f4a7c15ULL;
    p.vertex_to_partition_[v] =
        static_cast<PartitionId>(SplitMix64(&h) % num_partitions);
  }
  p.partition_to_worker_.resize(num_partitions);
  for (int part = 0; part < num_partitions; ++part) {
    p.partition_to_worker_[part] = static_cast<WorkerId>(part % num_workers);
  }
  p.BuildIndexes();
  return p;
}

Partitioning Partitioning::Contiguous(VertexId num_vertices, int num_workers,
                                      int partitions_per_worker) {
  SG_CHECK_GT(num_workers, 0);
  SG_CHECK_GT(partitions_per_worker, 0);
  const int num_partitions = num_workers * partitions_per_worker;

  Partitioning p;
  p.num_workers_ = num_workers;
  p.vertex_to_partition_.resize(num_vertices);
  const VertexId chunk =
      num_vertices == 0 ? 1 : (num_vertices + num_partitions - 1) /
                                  num_partitions;
  for (VertexId v = 0; v < num_vertices; ++v) {
    p.vertex_to_partition_[v] = static_cast<PartitionId>(
        std::min<VertexId>(v / chunk, num_partitions - 1));
  }
  // Contiguous partitions also map contiguously onto workers so that a
  // worker owns a contiguous vertex range, matching the layout of the
  // paper's worked examples (Figures 2-5).
  p.partition_to_worker_.resize(num_partitions);
  for (int part = 0; part < num_partitions; ++part) {
    p.partition_to_worker_[part] =
        static_cast<WorkerId>(part / partitions_per_worker);
  }
  p.BuildIndexes();
  return p;
}

StatusOr<Partitioning> Partitioning::FromAssignment(
    std::vector<PartitionId> vertex_to_partition,
    std::vector<WorkerId> partition_to_worker) {
  const int num_partitions = static_cast<int>(partition_to_worker.size());
  if (num_partitions == 0) {
    return Status::InvalidArgument("no partitions");
  }
  int max_worker = -1;
  for (WorkerId w : partition_to_worker) {
    if (w < 0) return Status::InvalidArgument("negative worker id");
    max_worker = std::max(max_worker, static_cast<int>(w));
  }
  for (PartitionId part : vertex_to_partition) {
    if (part < 0 || part >= num_partitions) {
      return Status::InvalidArgument("vertex mapped to invalid partition");
    }
  }
  std::vector<bool> seen(max_worker + 1, false);
  for (WorkerId w : partition_to_worker) seen[w] = true;
  for (bool s : seen) {
    if (!s) return Status::InvalidArgument("worker ids not dense");
  }

  Partitioning p;
  p.num_workers_ = max_worker + 1;
  p.vertex_to_partition_ = std::move(vertex_to_partition);
  p.partition_to_worker_ = std::move(partition_to_worker);
  p.BuildIndexes();
  return p;
}

void Partitioning::BuildIndexes() {
  worker_partitions_.assign(num_workers_, {});
  for (int part = 0; part < num_partitions(); ++part) {
    worker_partitions_[partition_to_worker_[part]].push_back(part);
  }
  partition_vertices_.assign(num_partitions(), {});
  for (VertexId v = 0; v < num_vertices(); ++v) {
    partition_vertices_[vertex_to_partition_[v]].push_back(v);
  }
}

const char* VertexLocalityName(VertexLocality locality) {
  switch (locality) {
    case VertexLocality::kPInternal:
      return "p-internal";
    case VertexLocality::kLocalBoundary:
      return "local-boundary";
    case VertexLocality::kRemoteBoundary:
      return "remote-boundary";
    case VertexLocality::kMixedBoundary:
      return "mixed-boundary";
  }
  return "?";
}

BoundaryInfo::BoundaryInfo(const Graph& graph,
                           const Partitioning& partitioning) {
  SG_CHECK_EQ(graph.num_vertices(), partitioning.num_vertices());
  const VertexId n = graph.num_vertices();
  locality_.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    const PartitionId pv = partitioning.PartitionOf(v);
    const WorkerId wv = partitioning.WorkerOfPartition(pv);
    bool has_local = false;   // same worker, different partition
    bool has_remote = false;  // different worker
    // Once both are seen the vertex is mixed-boundary whatever the rest
    // of its lists holds, so the scan stops there.
    auto scan = [&](auto nbrs) {
      for (VertexId u : nbrs) {
        const PartitionId pu = partitioning.PartitionOf(u);
        if (pu == pv) continue;
        if (partitioning.WorkerOfPartition(pu) == wv) {
          has_local = true;
        } else {
          has_remote = true;
        }
        if (has_local && has_remote) return;
      }
    };
    scan(graph.OutNeighbors(v));
    if (!(has_local && has_remote)) scan(graph.InNeighbors(v));
    VertexLocality loc;
    if (has_remote && has_local) {
      loc = VertexLocality::kMixedBoundary;
    } else if (has_remote) {
      loc = VertexLocality::kRemoteBoundary;
    } else if (has_local) {
      loc = VertexLocality::kLocalBoundary;
    } else {
      loc = VertexLocality::kPInternal;
    }
    locality_[v] = loc;
    ++counts_[static_cast<int>(loc)];
  }
}

std::vector<std::vector<PartitionId>> BuildPartitionGraph(
    const Graph& graph, const Partitioning& partitioning) {
  SG_CHECK_EQ(graph.num_vertices(), partitioning.num_vertices());
  std::vector<std::vector<PartitionId>> adj(partitioning.num_partitions());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const PartitionId pv = partitioning.PartitionOf(v);
    for (VertexId u : graph.OutNeighbors(v)) {
      const PartitionId pu = partitioning.PartitionOf(u);
      if (pu != pv) {
        adj[pv].push_back(pu);
        adj[pu].push_back(pv);  // locking is symmetric (Section 3.5)
      }
    }
  }
  for (auto& nbrs : adj) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }
  return adj;
}

int64_t CountPartitionForks(
    const std::vector<std::vector<PartitionId>>& partition_graph) {
  int64_t directed = 0;
  for (const auto& nbrs : partition_graph) {
    directed += static_cast<int64_t>(nbrs.size());
  }
  return directed / 2;
}

}  // namespace serigraph
