#ifndef SERIGRAPH_GRAPH_GENERATORS_H_
#define SERIGRAPH_GRAPH_GENERATORS_H_

#include <cstdint>

#include "graph/types.h"

namespace serigraph {

/// Deterministic synthetic graph generators. Every generator's output —
/// the edge list, edge for edge and in order — is a pure function of its
/// parameters and `seed`, so experiments are exactly reproducible, and an
/// optimization of a generator must keep every output bit-identical
/// (tests/graph_test.cc checks PowerLawChungLu against its binary-search
/// original). Generators return directed edge lists; callers that need
/// undirected graphs (e.g. coloring) use Graph::Undirected().

/// G(n, m): `num_edges` directed edges sampled uniformly (no self loops;
/// duplicates collapse at Graph construction, so the realized count can be
/// slightly below num_edges on dense settings).
EdgeList ErdosRenyi(VertexId num_vertices, int64_t num_edges, uint64_t seed);

/// Chung–Lu power-law graph: vertex v gets expected degree proportional to
/// (v+1)^(-1/(gamma-1)) scaled so the mean degree is `avg_degree`. This is
/// the stand-in family for the paper's social/web graphs (Table 1), all of
/// which follow power-law degree distributions with very large max degree.
/// Each endpoint costs O(1) expected time (CdfLookup's guide table).
EdgeList PowerLawChungLu(VertexId num_vertices, double avg_degree,
                         double gamma, uint64_t seed);

/// R-MAT recursive-matrix graph (Chakrabarti et al.): 2^scale vertices,
/// edge_factor * 2^scale edges, quadrant probabilities (a, b, c, implicit
/// d = 1-a-b-c). Defaults mirror the Graph500 parameters.
EdgeList RMat(int scale, int edge_factor, uint64_t seed, double a = 0.57,
              double b = 0.19, double c = 0.19);

/// Cycle 0 -> 1 -> ... -> n-1 -> 0.
EdgeList Ring(VertexId num_vertices);

/// Undirected 2-D grid (edges in both directions), rows x cols vertices.
EdgeList Grid(VertexId rows, VertexId cols);

/// Complete directed graph on n vertices (all ordered pairs).
EdgeList Complete(VertexId num_vertices);

/// Star: center 0 connected (both directions) to all other vertices.
EdgeList Star(VertexId num_vertices);

/// Simple path 0 -> 1 -> ... -> n-1.
EdgeList Path(VertexId num_vertices);

/// The 4-vertex, 2-worker example graph from the paper's Figures 2-5:
/// undirected edges {v0-v1, v0-v2, v1-v3, v2-v3} (a 4-cycle).
EdgeList PaperExampleGraph();

}  // namespace serigraph

#endif  // SERIGRAPH_GRAPH_GENERATORS_H_
