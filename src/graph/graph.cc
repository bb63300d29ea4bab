#include "graph/graph.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/logging.h"

namespace serigraph {

namespace {

/// Turns per-vertex counts held at offsets[v] (v < n) into CSR offsets
/// for a scatter that fills each list from its end: afterwards
/// offsets[v] is one past v's last slot, and offsets[n] the total.
void CountsToListEnds(std::vector<int64_t>& offsets) {
  const size_t n = offsets.size() - 1;
  for (size_t v = 1; v < n; ++v) offsets[v] += offsets[v - 1];
  offsets[n] = n == 0 ? 0 : offsets[n - 1];
}

}  // namespace

StatusOr<Graph> Graph::FromEdgeList(const EdgeList& edge_list) {
  const VertexId n = edge_list.num_vertices;
  if (n < 0) {
    return Status::InvalidArgument("negative vertex count");
  }
  if (n > VertexId{std::numeric_limits<NeighborId>::max()} + 1) {
    return Status::InvalidArgument("vertex count " + std::to_string(n) +
                                   " exceeds 2^31, the NeighborId range");
  }
  for (const Edge& e : edge_list.edges) {
    if (e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n) {
      return Status::InvalidArgument(
          "edge endpoint out of range: (" + std::to_string(e.src) + "," +
          std::to_string(e.dst) + ") with n=" + std::to_string(n));
    }
  }

  Graph g;
  g.num_vertices_ = n;
  // Out-CSR by a counting sort on src: each scatter slot is taken with
  // --offsets[src], so offsets[v] ends at v's first slot.
  std::vector<int64_t>& out_offsets = g.out_offsets_;
  std::vector<NeighborId>& targets = g.out_targets_;
  out_offsets.assign(n + 1, 0);
  for (const Edge& e : edge_list.edges) {
    if (e.src != e.dst) ++out_offsets[e.src];
  }
  CountsToListEnds(out_offsets);
  targets.resize(out_offsets[n]);
  for (const Edge& e : edge_list.edges) {
    if (e.src != e.dst) {
      targets[--out_offsets[e.src]] = static_cast<NeighborId>(e.dst);
    }
  }
  // Sort and dedup each list, compacting the lists leftwards in place.
  // The array keeps its capacity: a shrinking copy would hold two target
  // arrays at once, which sets the peak memory of set-up.
  int64_t kept = 0;
  for (VertexId v = 0; v < n; ++v) {
    const auto first = targets.begin() + out_offsets[v];
    const auto last = targets.begin() + out_offsets[v + 1];
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    const auto dest = targets.begin() + kept;
    if (dest != first) std::copy(first, unique_end, dest);
    out_offsets[v] = kept;
    kept += unique_end - first;
  }
  out_offsets[n] = kept;
  targets.resize(kept);

  // In-CSR by a counting scatter over the out-CSR. Filling each in-list
  // from its end while src descends leaves it sorted by src.
  std::vector<int64_t>& in_offsets = g.in_offsets_;
  std::vector<NeighborId>& sources = g.in_sources_;
  in_offsets.assign(n + 1, 0);
  for (VertexId dst : targets) ++in_offsets[dst];
  CountsToListEnds(in_offsets);
  sources.resize(kept);
  for (VertexId src = n - 1; src >= 0; --src) {
    for (int64_t i = out_offsets[src + 1] - 1; i >= out_offsets[src]; --i) {
      sources[--in_offsets[targets[i]]] = static_cast<NeighborId>(src);
    }
  }
  return g;
}

Graph Graph::Undirected() const {
  // Each closure list is the merge of the sorted, duplicate-free out- and
  // in-lists; a count pass sizes the arrays exactly, a fill pass merges.
  Graph g;
  g.num_vertices_ = num_vertices_;
  g.out_offsets_.assign(num_vertices_ + 1, 0);
  for (VertexId v = 0; v < num_vertices_; ++v) {
    const auto out = OutNeighbors(v);
    const auto in = InNeighbors(v);
    int64_t common = 0;
    for (size_t i = 0, j = 0; i < out.size() && j < in.size();) {
      if (out[i] < in[j]) {
        ++i;
      } else if (in[j] < out[i]) {
        ++j;
      } else {
        ++common;
        ++i;
        ++j;
      }
    }
    g.out_offsets_[v + 1] = g.out_offsets_[v] +
                            static_cast<int64_t>(out.size() + in.size()) -
                            common;
  }
  g.out_targets_.resize(g.out_offsets_[num_vertices_]);
  for (VertexId v = 0; v < num_vertices_; ++v) {
    const auto out = OutNeighbors(v);
    const auto in = InNeighbors(v);
    std::set_union(out.begin(), out.end(), in.begin(), in.end(),
                   g.out_targets_.begin() + g.out_offsets_[v]);
  }
  // The closure is symmetric: v's in-neighbours are its out-neighbours.
  g.symmetric_ = true;
  return g;
}

Graph Graph::Clone() const {
  Graph g;
  g.num_vertices_ = num_vertices_;
  g.out_offsets_ = out_offsets_;
  g.out_targets_ = out_targets_;
  g.in_offsets_ = in_offsets_;
  g.in_sources_ = in_sources_;
  g.symmetric_ = symmetric_;
  return g;
}

int64_t Graph::MaxTotalDegree() const {
  int64_t best = 0;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    best = std::max(best, OutDegree(v) + InDegree(v));
  }
  return best;
}

int64_t Graph::MaxOutDegree() const {
  int64_t best = 0;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    best = std::max(best, OutDegree(v));
  }
  return best;
}

bool Graph::IsSymmetric() const {
  for (VertexId v = 0; v < num_vertices_; ++v) {
    for (VertexId u : OutNeighbors(v)) {
      auto nbrs = OutNeighbors(u);
      if (!std::binary_search(nbrs.begin(), nbrs.end(), v)) return false;
    }
  }
  return true;
}

std::vector<Edge> Graph::ToEdges() const {
  std::vector<Edge> edges;
  edges.reserve(out_targets_.size());
  for (VertexId v = 0; v < num_vertices_; ++v) {
    for (VertexId u : OutNeighbors(v)) edges.push_back({v, u});
  }
  return edges;
}

}  // namespace serigraph
