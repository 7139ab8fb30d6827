#include "workloads/graph/graph.h"

#include <algorithm>
#include <stdexcept>

namespace mtat {

namespace {

using EdgeList = std::vector<std::pair<Graph::Vertex, Graph::Vertex>>;

/// Counting-sort placement of `edges` (as u->v, or as v->u when `reversed`)
/// into `targets`, advancing each source's `cursor`.
void place(const EdgeList& edges, bool reversed, std::vector<std::uint64_t>& cursor,
           std::vector<Graph::Vertex>& targets) {
  // Each edge lands in a random slot of `targets`, so the pass is bound by
  // cache misses; prefetching the slot an edge kDistance ahead will take
  // overlaps them. (A later edge of the same vertex can move that slot on,
  // which only makes the hint land a few entries early.)
  constexpr std::size_t kDistance = 16;
  const std::size_t m = edges.size();
  for (std::size_t i = 0; i < m; ++i) {
    if (i + kDistance < m) {
      const auto& [pu, pv] = edges[i + kDistance];
      __builtin_prefetch(targets.data() + cursor[reversed ? pv : pu], /*rw=*/1);
    }
    const auto& [u, v] = edges[i];
    if (reversed)
      targets[cursor[v]++] = u;
    else
      targets[cursor[u]++] = v;
  }
}

}  // namespace

Graph::Graph(std::uint64_t n, std::vector<std::pair<Vertex, Vertex>> edges, bool symmetrize,
             Rng* weight_rng) {
  if (n == 0) throw std::invalid_argument("Graph: need at least one vertex");
  // Counting-sort edges into CSR. A symmetrized graph is the CSR of the
  // doubled list [edges..., reversed edges...]; it is built straight from
  // `edges` instead: both endpoints count toward the degrees, then the
  // forward edges are placed in one pass and the reversed ones in a second,
  // which is the order the stable sort of the doubled list gives each
  // vertex's run — without ever holding the doubled list.
  offsets_.assign(n + 1, 0);
  for (const auto& [u, v] : edges) {
    if (u >= n || v >= n) throw std::invalid_argument("Graph: edge endpoint out of range");
    offsets_[u + 1]++;
    if (symmetrize) offsets_[v + 1]++;
  }
  for (std::uint64_t i = 1; i <= n; ++i) offsets_[i] += offsets_[i - 1];
  targets_.resize(offsets_[n]);
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  place(edges, /*reversed=*/false, cursor, targets_);
  if (symmetrize) place(edges, /*reversed=*/true, cursor, targets_);
  EdgeList().swap(edges);  // release before the weights
  // Deterministic per-edge weights (1..64), independent of insertion order:
  // derived from the edge's final CSR slot when no RNG is supplied.
  weights_.resize(targets_.size());
  for (std::size_t e = 0; e < weights_.size(); ++e)
    weights_[e] = weight_rng ? static_cast<std::uint8_t>(1 + weight_rng->next_below(64))
                             : static_cast<std::uint8_t>(1 + (e * 2654435761u) % 64);
}

Graph make_uniform_graph(std::uint64_t n, std::uint64_t m, Rng& rng) {
  std::vector<std::pair<Graph::Vertex, Graph::Vertex>> edges;
  edges.reserve(m);
  while (edges.size() < m) {
    const auto u = static_cast<Graph::Vertex>(rng.next_below(n));
    const auto v = static_cast<Graph::Vertex>(rng.next_below(n));
    if (u != v) edges.emplace_back(u, v);
  }
  return Graph(n, std::move(edges), /*symmetrize=*/true, &rng);
}

std::vector<std::pair<Graph::Vertex, Graph::Vertex>> make_rmat_edges(int scale,
                                                                     int edges_per_vertex,
                                                                     Rng& rng) {
  if (scale <= 0 || scale > 31) throw std::invalid_argument("make_rmat_edges: bad scale");
  const std::uint64_t n = 1ull << scale;
  const std::uint64_t m = n * static_cast<std::uint64_t>(edges_per_vertex);
  constexpr double kA = 0.57, kB = 0.19, kC = 0.19;
  std::vector<std::pair<Graph::Vertex, Graph::Vertex>> edges;
  edges.reserve(m);
  for (std::uint64_t i = 0; i < m; ++i) {
    std::uint64_t u = 0, v = 0;
    for (int bit = 0; bit < scale; ++bit) {
      // Quadrant by one draw against the cumulative thresholds: [0, A) is
      // top-left (no bit), [A, A+B) sets v, [A+B, A+B+C) sets u, the rest
      // sets both. The three comparisons are monotone in r, so u's bit is
      // the second one and v's bit is the parity of all three — the same
      // quadrant an if/else chain picks, with no branch to mispredict.
      const double r = rng.next_double();
      const std::uint64_t ge_a = r >= kA;
      const std::uint64_t ge_ab = r >= kA + kB;
      const std::uint64_t ge_abc = r >= kA + kB + kC;
      u = (u << 1) | ge_ab;
      v = (v << 1) | (ge_a ^ ge_ab ^ ge_abc);
    }
    if (u != v) edges.emplace_back(static_cast<Graph::Vertex>(u), static_cast<Graph::Vertex>(v));
  }
  return edges;
}

Graph make_rmat_graph(int scale, int edges_per_vertex, Rng& rng) {
  auto edges = make_rmat_edges(scale, edges_per_vertex, rng);
  return Graph(1ull << scale, std::move(edges), /*symmetrize=*/true, &rng);
}

}  // namespace mtat
