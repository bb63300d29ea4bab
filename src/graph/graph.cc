#include "graph/graph.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>

#include "common/logging.h"
#include "common/scratch.h"
#include "common/threading.h"

namespace serigraph {

namespace {

/// A build thread gets at least this many input edges.
constexpr int64_t kBuildEdgesPerThread = Graph::kParallelBuildMinEdges / 2;

/// Turns per-vertex counts held at offsets[v] (v < n) into CSR offsets
/// for a scatter that fills each list from its end: afterwards
/// offsets[v] is one past v's last slot, and offsets[n] the total.
void CountsToListEnds(std::vector<int64_t>& offsets) {
  const size_t n = offsets.size() - 1;
  for (size_t v = 1; v < n; ++v) offsets[v] += offsets[v - 1];
  offsets[n] = n == 0 ? 0 : offsets[n - 1];
}

bool InRange(const Edge& e, VertexId n) {
  return e.src >= 0 && e.src < n && e.dst >= 0 && e.dst < n;
}

Status OutOfRange(const Edge& e, VertexId n) {
  return Status::InvalidArgument(
      "edge endpoint out of range: (" + std::to_string(e.src) + "," +
      std::to_string(e.dst) + ") with n=" + std::to_string(n));
}

/// Threads for building from `num_edges` input edges over n vertices:
/// one per usable CPU, but each gets kBuildEdgesPerThread edges and the
/// per-thread counts (two per vertex) must fit in the out-array. 1 below
/// the cutoff, and past 2^31 edges, where those int32 counts could
/// overflow.
int BuildThreads(VertexId n, int64_t num_edges) {
  if (num_edges < Graph::kParallelBuildMinEdges ||
      num_edges > std::numeric_limits<NeighborId>::max()) {
    return 1;
  }
  const int64_t threads =
      std::min({int64_t{AffinityCpuCount()}, num_edges / kBuildEdgesPerThread,
                num_edges / (2 * std::max<VertexId>(n, 1))});
  return static_cast<int>(std::max<int64_t>(threads, 1));
}

/// Splits [0, n) into `parts` vertex ranges [bounds[i], bounds[i+1])
/// whose lists hold about equal shares of the entries; `offsets` is a
/// nondecreasing CSR offset array with offsets[n] the total.
std::vector<VertexId> BalancedRanges(const std::vector<int64_t>& offsets,
                                     VertexId n, int parts) {
  std::vector<VertexId> bounds(parts + 1, n);
  for (int i = 0; i < parts; ++i) {
    bounds[i] = std::lower_bound(offsets.begin(), offsets.begin() + n,
                                 offsets[n] * i / parts) -
                offsets.begin();
  }
  return bounds;
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
  const std::vector<Edge>& edges = edge_list.edges;
  const auto num_input = static_cast<int64_t>(edges.size());
  const int threads = BuildThreads(n, num_input);
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads - 1, ThreadPool::Placement::kOnePerCpu);
  ThreadPool* const helpers = pool ? &*pool : nullptr;

  Graph g;
  g.num_vertices_ = n;
  std::vector<int64_t>& out_offsets = g.out_offsets_;
  std::vector<int64_t>& in_offsets = g.in_offsets_;
  Lists& targets = g.out_targets_;
  Lists& sources = g.in_sources_;
  out_offsets.assign(n + 1, 0);
  in_offsets.assign(n + 1, 0);

  // 1. Group the sources by dst in a scratch array (self loops
  // dropped). Afterwards in_offsets[v] is the start of v's group and
  // out_offsets[v] one past the end of v's out-list.
  ScratchArray<NeighborId> groups;
  if (threads == 1) {
    for (const Edge& e : edges) {
      if (!InRange(e, n)) return OutOfRange(e, n);
      if (e.src != e.dst) {
        ++out_offsets[e.src];
        ++in_offsets[e.dst];
      }
    }
    CountsToListEnds(out_offsets);
    CountsToListEnds(in_offsets);
    groups = ScratchArray<NeighborId>(in_offsets[n]);
    for (const Edge& e : edges) {
      if (e.src != e.dst) {
        groups[--in_offsets[e.dst]] = static_cast<NeighborId>(e.src);
      }
    }
    targets.resize(out_offsets[n]);
  } else {
    // Each thread counts a slice of the input. Its counts live in the
    // out-array, which only step 2 fills: in-degrees at [t*n, (t+1)*n),
    // out-degrees `threads` slices further on. The threads also touch
    // the rest of the array first, so that step 2, which runs on one
    // thread, finds its pages mapped.
    targets.resize(num_input);
    NeighborId* const counts = targets.data();
    auto slice = [&](int t, int64_t from, int64_t to) {
      return std::pair(from + (to - from) * t / threads,
                       from + (to - from) * (t + 1) / threads);
    };
    std::vector<int64_t> first_bad(threads, num_input);
    RunOnEach(helpers, threads, [&](int t) {
      NeighborId* const in_count = counts + t * n;
      NeighborId* const out_count = counts + (threads + t) * n;
      std::fill(in_count, in_count + n, 0);
      std::fill(out_count, out_count + n, 0);
      const auto [rest, rest_end] = slice(t, 2 * threads * n, num_input);
      std::fill(counts + rest, counts + rest_end, 0);
      const auto [begin, end] = slice(t, 0, num_input);
      for (int64_t i = begin; i < end; ++i) {
        const Edge& e = edges[i];
        if (!InRange(e, n)) {
          first_bad[t] = i;
          return;
        }
        if (e.src != e.dst) {
          ++in_count[e.dst];
          ++out_count[e.src];
        }
      }
    });
    const int64_t bad = *std::min_element(first_bad.begin(), first_bad.end());
    if (bad < num_input) return OutOfRange(edges[bad], n);
    // Per vertex: the degrees, and each thread's in-count replaced by
    // its offset within the vertex's group.
    RunOnEach(helpers, threads, [&](int t) {
      for (VertexId v = n * t / threads; v < n * (t + 1) / threads; ++v) {
        NeighborId in_degree = 0;
        int64_t out_degree = 0;
        for (int u = 0; u < threads; ++u) {
          NeighborId& in_count = counts[u * n + v];
          const NeighborId count = in_count;
          in_count = in_degree;
          in_degree += count;
          out_degree += counts[(threads + u) * n + v];
        }
        in_offsets[v] = in_degree;
        out_offsets[v] = out_degree;
      }
    });
    CountsToListEnds(out_offsets);
    int64_t grouped = 0;
    for (VertexId v = 0; v < n; ++v) {
      const int64_t degree = in_offsets[v];
      in_offsets[v] = grouped;
      grouped += degree;
    }
    in_offsets[n] = grouped;
    // Step 3 counts into `threads` slices of n here.
    groups = ScratchArray<NeighborId>(std::max(grouped, threads * n));
    RunOnEach(helpers, threads, [&](int t) {
      NeighborId* const in_cursor = counts + t * n;
      const auto [begin, end] = slice(t, 0, num_input);
      for (int64_t i = begin; i < end; ++i) {
        const Edge& e = edges[i];
        if (e.src != e.dst) {
          groups[in_offsets[e.dst] + in_cursor[e.dst]++] =
              static_cast<NeighborId>(e.src);
        }
      }
    });
    targets.resize(grouped);
  }

  // 2. Scatter the groups by src while dst descends, filling each
  // out-list from its end: every list comes out sorted, its duplicates
  // adjacent. Afterwards out_offsets[v] is the start of v's list. This
  // pass stays on one thread: a split by src range would have every
  // thread read every group.
  for (VertexId dst = n - 1; dst >= 0; --dst) {
    for (int64_t i = in_offsets[dst]; i < in_offsets[dst + 1]; ++i) {
      targets[--out_offsets[groups[i]]] = static_cast<NeighborId>(dst);
    }
  }

  // 3. Drop the duplicates. Thread b compacts the lists of one src range
  // holding about 1/threads of the entries towards the range's start,
  // and counts the in-degrees of what it keeps into slice b of the
  // group array, which step 2 has spent; the ranges then close up in
  // order. The out-array keeps its capacity: a shrinking copy would
  // hold two target arrays at once, which sets the peak memory of
  // set-up.
  const std::vector<VertexId> src_ranges =
      BalancedRanges(out_offsets, n, threads);
  std::vector<int64_t> region(threads + 1);
  for (int b = 0; b <= threads; ++b) region[b] = out_offsets[src_ranges[b]];
  std::vector<int64_t> kept(threads);
  RunOnEach(helpers, threads, [&](int b) {
    NeighborId* const in_count =
        threads > 1 ? groups.data() + b * n : nullptr;
    if (in_count != nullptr) std::fill(in_count, in_count + n, 0);
    int64_t write = region[b];
    for (VertexId v = src_ranges[b]; v < src_ranges[b + 1]; ++v) {
      const int64_t begin = out_offsets[v];
      const int64_t end =
          v + 1 < src_ranges[b + 1] ? out_offsets[v + 1] : region[b + 1];
      out_offsets[v] = write;
      NeighborId last = -1;
      for (int64_t i = begin; i < end; ++i) {
        if (targets[i] == last) continue;
        last = targets[write++] = targets[i];
        if (in_count != nullptr) ++in_count[last];
      }
    }
    kept[b] = write - region[b];
  });
  int64_t num_kept = 0;
  for (int b = 0; b < threads; ++b) {
    const int64_t shift = region[b] - num_kept;
    if (shift != 0) {
      std::copy(targets.begin() + region[b],
                targets.begin() + region[b] + kept[b],
                targets.begin() + num_kept);
      for (VertexId v = src_ranges[b]; v < src_ranges[b + 1]; ++v) {
        out_offsets[v] -= shift;
      }
    }
    num_kept += kept[b];
  }
  out_offsets[n] = num_kept;
  targets.resize(num_kept);
  if (threads == 1) {
    std::fill(in_offsets.begin(), in_offsets.end(), 0);
    for (const NeighborId dst : targets) ++in_offsets[dst];
  } else {
    RunOnEach(helpers, threads, [&](int t) {
      for (VertexId v = n * t / threads; v < n * (t + 1) / threads; ++v) {
        int64_t in_degree = 0;
        for (int b = 0; b < threads; ++b) in_degree += groups[b * n + v];
        in_offsets[v] = in_degree;
      }
    });
  }
  CountsToListEnds(in_offsets);
  // Unmapped before the in-array is allocated at its exact size, so the
  // two are never held together.
  groups = ScratchArray<NeighborId>();

  // 4. In-CSR by a counting scatter over the out-CSR. Filling each
  // in-list from its end while src descends leaves it sorted by src.
  // Thread b takes the dsts of one range holding about 1/threads of
  // the entries; in each sorted out-list they are one run, found by
  // binary search.
  sources.resize(num_kept);
  const std::vector<VertexId> dst_ranges =
      BalancedRanges(in_offsets, n, threads);
  RunOnEach(helpers, threads, [&](int b) {
    const VertexId lo = dst_ranges[b];
    const VertexId hi = dst_ranges[b + 1];
    for (VertexId src = n - 1; src >= 0; --src) {
      const NeighborId* first = targets.data() + out_offsets[src];
      const NeighborId* last = targets.data() + out_offsets[src + 1];
      if (lo > 0) first = std::lower_bound(first, last, lo);
      if (hi < n) last = std::lower_bound(first, last, hi);
      for (; first < last; ++first) {
        sources[--in_offsets[*first]] = static_cast<NeighborId>(src);
      }
    }
  });
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
