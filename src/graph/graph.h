#ifndef SERIGRAPH_GRAPH_GRAPH_H_
#define SERIGRAPH_GRAPH_GRAPH_H_

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace serigraph {

/// Immutable directed graph in compressed-sparse-row form, indexed both by
/// out-edges (CSR) and in-edges (CSC). Undirected graphs are represented by
/// storing each edge in both directions (the convention the paper uses for
/// its undirected inputs, Table 1).
///
/// The in-edge index exists because a serializability transaction for
/// vertex u reads {u} ∪ in-neighbors(u) (paper Section 3.2), and because
/// boundary classification must consider both in- and out-neighbors.
///
/// Contract every Graph keeps, and callers rely on: OutNeighbors(v) and
/// InNeighbors(v) are sorted ascending and free of duplicates, and no
/// vertex is its own neighbour. (HistoryRecorder's in-edge index and its
/// binary search over InNeighbors depend on the in-lists' order.)
class Graph {
 public:
  /// Builds a graph from an edge list. Self-loops are dropped (vertex
  /// programs never message themselves in the paper's model) and duplicate
  /// edges are collapsed. Fails if any endpoint is outside
  /// [0, edge_list.num_vertices).
  ///
  /// Cost: a counting sort, O(|V| + |E|) plus a sort of each adjacency
  /// list. The input is read, never copied. The arrays hold 8 B per kept
  /// edge in each direction; the out-array's capacity also spans the
  /// dropped self loops and duplicates.
  static StatusOr<Graph> FromEdgeList(const EdgeList& edge_list);

  /// Returns the undirected closure: every edge (u,v) also present as
  /// (v,u). Needed by graph coloring, which requires undirected input.
  ///
  /// Cost: O(|V| + |E|), a merge of each vertex's out- and in-list; no
  /// edge list is built and nothing is sorted.
  Graph Undirected() const;

  Graph() = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;
  // Copies are explicit via Clone(); graphs can be large.
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph Clone() const;

  VertexId num_vertices() const { return num_vertices_; }
  /// Number of directed edges stored (an undirected graph counts each
  /// edge twice, matching the parenthesised |E| column of Table 1).
  int64_t num_edges() const {
    return static_cast<int64_t>(out_targets_.size());
  }

  int64_t OutDegree(VertexId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  int64_t InDegree(VertexId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  std::span<const VertexId> OutNeighbors(VertexId v) const {
    return {out_targets_.data() + out_offsets_[v],
            out_targets_.data() + out_offsets_[v + 1]};
  }
  std::span<const VertexId> InNeighbors(VertexId v) const {
    return {in_sources_.data() + in_offsets_[v],
            in_sources_.data() + in_offsets_[v + 1]};
  }

  /// Maximum of (in+out) degree over all vertices; the "Max Degree"
  /// column of Table 1. For undirected graphs this is twice the
  /// conventional degree, so callers divide as appropriate.
  int64_t MaxTotalDegree() const;
  /// Maximum out-degree.
  int64_t MaxOutDegree() const;

  /// True if for every edge (u,v) the reverse edge (v,u) exists.
  bool IsSymmetric() const;

  /// All edges, in CSR order. Mostly for tests and serialization.
  std::vector<Edge> ToEdges() const;

 private:
  VertexId num_vertices_ = 0;
  std::vector<int64_t> out_offsets_{0};
  std::vector<VertexId> out_targets_;
  std::vector<int64_t> in_offsets_{0};
  std::vector<VertexId> in_sources_;
};

}  // namespace serigraph

#endif  // SERIGRAPH_GRAPH_GRAPH_H_
