#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/scratch.h"
#include "common/threading.h"
#include "graph/cdf_lookup.h"

namespace serigraph {

namespace {

/// Chung-Lu candidates per chunk. Candidate i consumes draws 2i and
/// 2i+1, kept or not, so chunk c starts 2 * c * kChunkCandidates draws
/// into the stream, whichever thread samples it.
constexpr int64_t kChunkCandidates = 1 << 14;
/// x^(2 * kChunkCandidates) mod xoshiro256's characteristic polynomial:
/// Rng::Jump with it steps over one chunk's draws
/// (scripts/xoshiro_jump.py 32768).
constexpr uint64_t kChunkJump[4] = {0x449b3ae793888c8c, 0xc3ce2f061f077568,
                                    0xa69393ac0d837e54, 0x1a9dcf944ae47603};
/// Draws of fewer edges sample on the calling thread (docs/PERF.md,
/// "Set-up on every core": the cutoff measurement).
constexpr int64_t kParallelSampleMinEdges = 8 * kChunkCandidates;

/// Samples one chunk's candidates from `rng` into `out`, keeping each
/// pair whose endpoints differ; returns how many were kept.
int64_t SampleChunk(const CdfLookup& lookup, Rng rng, Edge* out) {
  int64_t kept = 0;
  for (int64_t i = 0; i < kChunkCandidates; ++i) {
    const VertexId src = lookup.Find(rng.NextDouble());
    const VertexId dst = lookup.Find(rng.NextDouble());
    if (src != dst) out[kept++] = {src, dst};
  }
  return kept;
}

/// Appends kept candidates to `edges` until it holds `target` edges, as
/// the sequential loop would. Chunks are sampled on `threads` pool
/// threads into a window of 2 * threads buffers, and the calling thread
/// appends them in chunk order. The pool's queue stays fed, so its
/// threads do not sleep between chunks; the caller blocks on each
/// chunk's latch.
void SampleInChunks(const CdfLookup& lookup, Rng rng, int64_t target,
                    int threads, std::vector<Edge>& edges) {
  struct Chunk {
    Rng rng;  // at the chunk's first draw
    Edge* out = nullptr;
    int64_t kept = 0;
    std::optional<CountDownLatch> done;
  };
  const int window = 2 * threads;
  const ScratchArray<Edge> buffers(window * kChunkCandidates);
  std::vector<Chunk> chunks(window);
  for (int slot = 0; slot < window; ++slot) {
    chunks[slot].out = buffers.data() + slot * kChunkCandidates;
  }
  ThreadPool pool(threads, ThreadPool::Placement::kOnePerCpu);
  int64_t submitted = 0;
  for (int64_t next = 0; static_cast<int64_t>(edges.size()) < target; ++next) {
    // Keep enough chunks in flight to reach the target if at most 1/64
    // of their candidates are rejected; later chunks follow if more are.
    const int64_t missing = target - static_cast<int64_t>(edges.size());
    const int64_t wanted = std::min<int64_t>(
        window, (missing + missing / 64) / kChunkCandidates + 1);
    for (; submitted - next < wanted; ++submitted) {
      Chunk* const chunk = &chunks[submitted % window];
      chunk->rng = rng;
      chunk->done.emplace(1);
      // Two pointers: the task fits std::function's inline storage, so
      // submitting allocates nothing.
      pool.Submit([lookup = &lookup, chunk] {
        chunk->kept = SampleChunk(*lookup, chunk->rng, chunk->out);
        chunk->done->CountDown();
      });
      rng.Jump(kChunkJump);
    }
    Chunk& chunk = chunks[next % window];
    chunk.done->Wait();
    edges.insert(edges.end(), chunk.out,
                 chunk.out + std::min(chunk.kept, missing));
  }
  // The pool's destructor waits out chunks sampled beyond the target.
}

}  // namespace

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
  // sum(w) * avg_degree/mean(w) gives the requested mean degree. The CDF
  // array holds them until the second loop turns them into the
  // cumulative distribution for weighted endpoint sampling.
  const double exponent = -1.0 / (gamma - 1.0);
  std::vector<double> cdf(num_vertices);
  double total = 0.0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    cdf[v] = std::pow(static_cast<double>(v + 1), exponent);
    total += cdf[v];
  }
  double acc = 0.0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    acc += cdf[v] / total;
    cdf[v] = acc;
  }
  const CdfLookup lookup(std::move(cdf));

  const int64_t target_edges =
      static_cast<int64_t>(avg_degree * static_cast<double>(num_vertices));
  EdgeList el;
  el.num_vertices = num_vertices;
  el.edges.reserve(target_edges);
  const int threads = static_cast<int>(std::min<int64_t>(
      AffinityCpuCount(), target_edges / kChunkCandidates));
  if (target_edges >= kParallelSampleMinEdges && threads > 1) {
    SampleInChunks(lookup, rng, target_edges, threads, el.edges);
    return el;
  }
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
