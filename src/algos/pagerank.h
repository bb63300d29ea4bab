#ifndef SERIGRAPH_ALGOS_PAGERANK_H_
#define SERIGRAPH_ALGOS_PAGERANK_H_

#include <cmath>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace serigraph {

/// PageRank in the accumulative (delta) formulation, the standard way to
/// run PageRank under asynchronous execution with vote-to-halt semantics
/// (used by the Giraph-async line of work the paper builds on).
///
/// Every vertex accumulates incoming probability mass into its value; a
/// received mass m additionally forwards 0.85 * m / out_degree to each
/// out-neighbor. A vertex's first execution seeds it with the base mass
/// 0.15.
/// A vertex halts when the mass received since its last execution is
/// below `tolerance` (the paper's user-specified threshold: it terminates
/// when every vertex changes by less than the threshold between two
/// consecutive executions). The fixpoint is the paper's expectation form
/// pr(u) = 0.15 + 0.85 * sum(pr(v)/deg+(v)).
struct PageRank {
  using VertexValue = double;
  using Message = double;

  static constexpr double kDamping = 0.85;
  static constexpr double kBase = 0.15;

  explicit PageRank(double tolerance) : tolerance(tolerance) {}

  double tolerance;

  static Message Combine(const Message& a, const Message& b) { return a + b; }
  /// Sums start from +0.0; the forwarded masses are positive, so adding
  /// it is exact and the pull gather stays bit-identical to a branchy fold.
  static constexpr Message kCombineIdentity = 0.0;

  VertexValue InitialValue(VertexId, const Graph&) const { return 0.0; }

  template <typename Ctx>
  void Compute(Ctx& ctx, std::span<const Message> messages) const {
    double received = 0.0;
    for (Message m : messages) received += m;
    // Seed the base mass on the first execution (value still exactly 0),
    // not in superstep 0: token passing cannot guarantee every vertex
    // executes in superstep 0 (paper Section 6.5).
    if (ctx.value() == 0.0) received += kBase;

    if (received > 0.0) {
      ctx.set_value(ctx.value() + received);
      if (received >= tolerance && ctx.num_out_edges() > 0) {
        ctx.SendToAllOutNeighbors(
            kDamping * received /
            static_cast<double>(ctx.num_out_edges()));
      }
    }
    ctx.VoteToHalt();
  }
};

/// Sequential reference PageRank (power iteration on the same fixpoint),
/// for test oracles. Returns expectation values like the paper.
std::vector<double> ReferencePageRank(const Graph& graph, double tolerance,
                                      int max_iterations = 1000);

/// Max |a[i] - b[i]|.
double MaxAbsDifference(std::span<const double> a, std::span<const double> b);

}  // namespace serigraph

#endif  // SERIGRAPH_ALGOS_PAGERANK_H_
