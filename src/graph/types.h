#ifndef SERIGRAPH_GRAPH_TYPES_H_
#define SERIGRAPH_GRAPH_TYPES_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace serigraph {

/// Vertex identifier. Vertices of a graph with n vertices are densely
/// numbered [0, n).
using VertexId = int64_t;

/// A vertex id as a Graph's adjacency arrays store it: 4 bytes, so each
/// stored edge costs half a VertexId. Holds every id of a graph with at
/// most 2^31 vertices, which Graph::FromEdgeList enforces. Callers read
/// neighbour spans as VertexId (a range-for converts) or through `auto`;
/// only src/graph depends on the width.
using NeighborId = int32_t;

/// Graph partition identifier (dense, [0, num_partitions)).
using PartitionId = int32_t;

/// Worker machine identifier (dense, [0, num_workers)). In this
/// reproduction a "worker machine" is a worker thread group inside one
/// process (see DESIGN.md substitution table).
using WorkerId = int32_t;

inline constexpr VertexId kInvalidVertex = -1;
inline constexpr PartitionId kInvalidPartition = -1;
inline constexpr WorkerId kInvalidWorker = -1;

/// A directed edge (src -> dst).
struct Edge {
  VertexId src = kInvalidVertex;
  VertexId dst = kInvalidVertex;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.src == b.src && a.dst == b.dst;
  }
  friend auto operator<=>(const Edge& a, const Edge& b) {
    return std::pair(a.src, a.dst) <=> std::pair(b.src, b.dst);
  }
};

/// Unordered edge list plus vertex count; the raw interchange format
/// between generators, loaders, and the Graph builder.
struct EdgeList {
  VertexId num_vertices = 0;
  std::vector<Edge> edges;
};

}  // namespace serigraph

#endif  // SERIGRAPH_GRAPH_TYPES_H_
