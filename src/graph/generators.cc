#include "graph/generators.h"

#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "graph/cdf_lookup.h"

namespace serigraph {

EdgeList ErdosRenyi(VertexId num_vertices, int64_t num_edges, uint64_t seed) {
  SG_CHECK_GE(num_vertices, 2);
  Rng rng(seed);
  EdgeList el;
  el.num_vertices = num_vertices;
  el.edges.reserve(num_edges);
  for (int64_t i = 0; i < num_edges; ++i) {
    VertexId src = static_cast<VertexId>(rng.Uniform(num_vertices));
    VertexId dst = static_cast<VertexId>(rng.Uniform(num_vertices - 1));
    if (dst >= src) ++dst;  // skip self loop
    el.edges.push_back({src, dst});
  }
  return el;
}

EdgeList PowerLawChungLu(VertexId num_vertices, double avg_degree,
                         double gamma, uint64_t seed) {
  SG_CHECK_GE(num_vertices, 2);
  SG_CHECK_GT(gamma, 1.0);
  Rng rng(seed);

  // Expected-degree weights w_v = (v+1)^(-1/(gamma-1)), normalized so that
  // sum(w) * avg_degree/mean(w) gives the requested mean degree.
  const double exponent = -1.0 / (gamma - 1.0);
  std::vector<double> weights(num_vertices);
  double total = 0.0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    weights[v] = std::pow(static_cast<double>(v + 1), exponent);
    total += weights[v];
  }
  // Cumulative distribution for weighted endpoint sampling.
  std::vector<double> cdf(num_vertices);
  double acc = 0.0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    acc += weights[v] / total;
    cdf[v] = acc;
  }
  const CdfLookup lookup(std::move(cdf));

  const int64_t target_edges =
      static_cast<int64_t>(avg_degree * static_cast<double>(num_vertices));
  EdgeList el;
  el.num_vertices = num_vertices;
  el.edges.reserve(target_edges);
  while (static_cast<int64_t>(el.edges.size()) < target_edges) {
    VertexId src = lookup.Find(rng.NextDouble());
    VertexId dst = lookup.Find(rng.NextDouble());
    if (src == dst) continue;
    el.edges.push_back({src, dst});
  }
  return el;
}

EdgeList RMat(int scale, int edge_factor, uint64_t seed, double a, double b,
              double c) {
  SG_CHECK_GT(scale, 0);
  SG_CHECK_LE(scale, 30);
  const double d = 1.0 - a - b - c;
  SG_CHECK_GE(d, 0.0);
  Rng rng(seed);
  const VertexId n = VertexId{1} << scale;
  const int64_t m = static_cast<int64_t>(edge_factor) * n;

  EdgeList el;
  el.num_vertices = n;
  el.edges.reserve(m);
  while (static_cast<int64_t>(el.edges.size()) < m) {
    VertexId src = 0;
    VertexId dst = 0;
    for (int bit = 0; bit < scale; ++bit) {
      const double r = rng.NextDouble();
      if (r < a) {
        // top-left quadrant: neither bit set
      } else if (r < a + b) {
        dst |= VertexId{1} << bit;
      } else if (r < a + b + c) {
        src |= VertexId{1} << bit;
      } else {
        src |= VertexId{1} << bit;
        dst |= VertexId{1} << bit;
      }
    }
    if (src == dst) continue;
    el.edges.push_back({src, dst});
  }
  return el;
}

EdgeList Ring(VertexId num_vertices) {
  SG_CHECK_GE(num_vertices, 2);
  EdgeList el;
  el.num_vertices = num_vertices;
  el.edges.reserve(num_vertices);
  for (VertexId v = 0; v < num_vertices; ++v) {
    el.edges.push_back({v, (v + 1) % num_vertices});
  }
  return el;
}

EdgeList Grid(VertexId rows, VertexId cols) {
  SG_CHECK_GE(rows, 1);
  SG_CHECK_GE(cols, 1);
  EdgeList el;
  el.num_vertices = rows * cols;
  auto id = [cols](VertexId r, VertexId c) { return r * cols + c; };
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        el.edges.push_back({id(r, c), id(r, c + 1)});
        el.edges.push_back({id(r, c + 1), id(r, c)});
      }
      if (r + 1 < rows) {
        el.edges.push_back({id(r, c), id(r + 1, c)});
        el.edges.push_back({id(r + 1, c), id(r, c)});
      }
    }
  }
  return el;
}

EdgeList Complete(VertexId num_vertices) {
  SG_CHECK_GE(num_vertices, 2);
  EdgeList el;
  el.num_vertices = num_vertices;
  el.edges.reserve(num_vertices * (num_vertices - 1));
  for (VertexId u = 0; u < num_vertices; ++u) {
    for (VertexId v = 0; v < num_vertices; ++v) {
      if (u != v) el.edges.push_back({u, v});
    }
  }
  return el;
}

EdgeList Star(VertexId num_vertices) {
  SG_CHECK_GE(num_vertices, 2);
  EdgeList el;
  el.num_vertices = num_vertices;
  for (VertexId v = 1; v < num_vertices; ++v) {
    el.edges.push_back({0, v});
    el.edges.push_back({v, 0});
  }
  return el;
}

EdgeList Path(VertexId num_vertices) {
  SG_CHECK_GE(num_vertices, 1);
  EdgeList el;
  el.num_vertices = num_vertices;
  for (VertexId v = 0; v + 1 < num_vertices; ++v) {
    el.edges.push_back({v, v + 1});
  }
  return el;
}

EdgeList PaperExampleGraph() {
  // Figures 2-5: v0-v2 and v1-v3 within workers, v0-v1 and v2-v3 across.
  EdgeList el;
  el.num_vertices = 4;
  const Edge undirected[] = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  for (const Edge& e : undirected) {
    el.edges.push_back(e);
    el.edges.push_back({e.dst, e.src});
  }
  return el;
}

}  // namespace serigraph
