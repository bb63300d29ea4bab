#ifndef SERIGRAPH_ALGOS_WCC_H_
#define SERIGRAPH_ALGOS_WCC_H_

#include <limits>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace serigraph {

/// Weakly connected components via the HCC label-propagation algorithm
/// (PEGASUS; paper Section 7.2.4). Every vertex starts with its own id as
/// component label and adopts (and propagates) any smaller label it
/// hears. Weak connectivity ignores edge direction, so run this on the
/// undirected closure of directed inputs (as the paper does).
struct Wcc {
  using VertexValue = int64_t;  // component label
  using Message = int64_t;

  static Message Combine(const Message& a, const Message& b) {
    return a < b ? a : b;
  }
  static constexpr Message kCombineIdentity =
      std::numeric_limits<Message>::max();

  /// "Not yet announced" is encoded as -(v+1); a vertex announces its
  /// label on its first execution (not in superstep 0 — token passing
  /// cannot guarantee all vertices run then, paper Section 6.5).
  VertexValue InitialValue(VertexId v, const Graph&) const {
    return -(v + 1);
  }

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const Message> messages) const {
    const bool announced = ctx.value() >= 0;
    int64_t current = announced ? ctx.value() : -ctx.value() - 1;
    int64_t best = current;
    for (Message m : messages) best = m < best ? m : best;
    if (!announced || best < current) {
      ctx.set_value(best);
      ctx.SendToAllOutNeighbors(best);
    }
    ctx.VoteToHalt();
  }
};

/// Union-find reference labels: every vertex mapped to the smallest
/// vertex id in its weakly connected component.
std::vector<int64_t> ReferenceWcc(const Graph& graph);

/// Number of distinct components in a label vector.
int64_t CountComponents(std::span<const int64_t> labels);

}  // namespace serigraph

#endif  // SERIGRAPH_ALGOS_WCC_H_
