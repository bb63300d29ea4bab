#ifndef SERIGRAPH_ALGOS_SSSP_H_
#define SERIGRAPH_ALGOS_SSSP_H_

#include <limits>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace serigraph {

/// Distance value for unreachable vertices.
inline constexpr int64_t kInfiniteDistance =
    std::numeric_limits<int64_t>::max();

/// Single-source shortest paths, the parallel Bellman-Ford variant the
/// paper uses (Section 7.2.3) with unit edge weights. Vertices start at
/// infinity (the source at 0), propagate any newly discovered minimum
/// distance to their out-neighbors, and halt until reactivated.
struct Sssp {
  using VertexValue = int64_t;
  using Message = int64_t;

  explicit Sssp(VertexId source) : source(source) {}

  VertexId source;

  static Message Combine(const Message& a, const Message& b) {
    return a < b ? a : b;
  }
  static constexpr Message kCombineIdentity = kInfiniteDistance;

  VertexValue InitialValue(VertexId, const Graph&) const {
    return kInfiniteDistance;
  }

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const Message> messages) const {
    // The source seeds itself on its *first execution*, not in superstep
    // 0: under token passing not every vertex gets to run in superstep 0
    // (paper Section 6.5), so keying on the superstep number would lose
    // the seed.
    int64_t best = ctx.value();
    if (ctx.id() == source && best == kInfiniteDistance) best = 0;
    for (Message m : messages) best = m < best ? m : best;
    if (best < ctx.value()) {
      ctx.set_value(best);
      ctx.SendToAllOutNeighbors(best + 1);  // unit weights (Section 7.2.3)
    }
    ctx.VoteToHalt();
  }
};

/// Sequential BFS reference distances (unit weights).
std::vector<int64_t> ReferenceSssp(const Graph& graph, VertexId source);

}  // namespace serigraph

#endif  // SERIGRAPH_ALGOS_SSSP_H_
