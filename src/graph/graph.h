#ifndef SERIGRAPH_GRAPH_GRAPH_H_
#define SERIGRAPH_GRAPH_GRAPH_H_

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace serigraph {

/// std::allocator whose resize() leaves new elements of trivial types
/// uninitialized, so an adjacency array costs no zero-fill pass: the
/// build writes every slot it keeps, and the first writes fault the
/// pages in on whichever thread makes them. (Constructions with
/// arguments, such as copies, fall back to std::construct_at.)
template <typename T>
struct UninitializedAllocator : std::allocator<T> {
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
};

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
/// vertex is its own neighbour. (HistoryRecorder's in-edge index, its
/// binary search over InNeighbors, and its logged reads, which name no
/// neighbour, depend on the in-lists' order.) List
/// entries are NeighborIds (types.h), so a graph has at most 2^31
/// vertices.
class Graph {
 public:
  /// Builds a graph from an edge list. Self-loops are dropped (vertex
  /// programs never message themselves in the paper's model) and duplicate
  /// edges are collapsed. Fails if num_vertices exceeds 2^31 (before
  /// allocating anything) or if any endpoint is outside
  /// [0, edge_list.num_vertices); an out-of-range endpoint is reported
  /// for the first such edge in input order.
  ///
  /// Cost: O(|V| + |E|) in four counting scatters and no sort: sources
  /// grouped by dst in a scratch array, scattered by src in descending
  /// dst order (which leaves every out-list sorted), duplicates dropped,
  /// then the in-CSR scattered from the out-CSR. The input is read
  /// twice, never copied. Inputs of at least kParallelBuildMinEdges
  /// edges run the passes on up to one thread per usable CPU; the
  /// arrays are the same either way. They hold 4 B per kept edge in
  /// each direction and 8 B offsets per vertex; the out-array's capacity
  /// also spans the dropped self loops and duplicates. The per-thread
  /// counts live in the out-array and the scratch array before those
  /// are filled, and the scratch array is released before the in-array
  /// is allocated, so set-up never holds three edge-sized arrays.
  static StatusOr<Graph> FromEdgeList(const EdgeList& edge_list);

  /// Inputs with fewer edges build on the calling thread alone
  /// (docs/PERF.md, "Set-up on every core": the cutoff measurement).
  static constexpr int64_t kParallelBuildMinEdges = 1 << 18;

  /// Returns the undirected closure: every edge (u,v) also present as
  /// (v,u). Needed by graph coloring, which requires undirected input.
  ///
  /// Cost: O(|V| + |E|), a merge of each vertex's out- and in-list; no
  /// edge list is built and nothing is sorted. The closure stores its
  /// lists once: InNeighbors(v) is OutNeighbors(v), the same memory.
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
    return symmetric_ ? OutDegree(v) : in_offsets_[v + 1] - in_offsets_[v];
  }

  std::span<const NeighborId> OutNeighbors(VertexId v) const {
    return {out_targets_.data() + out_offsets_[v],
            out_targets_.data() + out_offsets_[v + 1]};
  }
  std::span<const NeighborId> InNeighbors(VertexId v) const {
    if (symmetric_) return OutNeighbors(v);
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

  /// True if the graph stores its lists once, InNeighbors(v) being
  /// OutNeighbors(v): an Undirected() closure. O(1); a graph built from
  /// an edge list that happens to be symmetric still reports false.
  bool symmetric() const { return symmetric_; }

  /// All edges, in CSR order. Mostly for tests and serialization.
  std::vector<Edge> ToEdges() const;

 private:
  using Lists = std::vector<NeighborId, UninitializedAllocator<NeighborId>>;

  VertexId num_vertices_ = 0;
  std::vector<int64_t> out_offsets_{0};
  Lists out_targets_;
  // Left unbuilt when symmetric_: the in-lists are then the out-lists.
  std::vector<int64_t> in_offsets_{0};
  Lists in_sources_;
  bool symmetric_ = false;
};

}  // namespace serigraph

#endif  // SERIGRAPH_GRAPH_GRAPH_H_
