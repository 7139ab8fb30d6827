// Tests for the graph substrate: CSR integrity, generators, and kernel
// correctness (BFS/SSSP validated against a reference Dijkstra; PageRank
// against its invariants), plus the access-accounting contract.
#include <gtest/gtest.h>

#include <queue>

#include "workloads/graph/graph_layout.h"
#include "workloads/graph/kernels.h"
#include "tier_aliases.h"

namespace mtat {
namespace {

TieredMemory::Config big() {
  TieredMemory::Config c =
      TieredMemory::Config::two_tier(1, 1 << 18);
  return c;
}

/// Reference shortest paths (Dijkstra over the same CSR).
std::vector<std::uint64_t> dijkstra(const Graph& g, Graph::Vertex src, bool unit_weights) {
  std::vector<std::uint64_t> dist(g.num_vertices(), kUnreached);
  using Item = std::pair<std::uint64_t, Graph::Vertex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[src] = 0;
  pq.push({0, src});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[u]) continue;
    for (std::uint64_t e = g.out_begin(u); e < g.out_end(u); ++e) {
      const Graph::Vertex v = g.target(e);
      const std::uint64_t nd = d + (unit_weights ? 1 : g.weight(e));
      if (nd < dist[v]) {
        dist[v] = nd;
        pq.push({nd, v});
      }
    }
  }
  return dist;
}

// ---------------------------------------------------------------- Graph ----

TEST(Graph, CsrDegreesSumToEdgeCount) {
  Rng rng(1);
  const Graph g = make_uniform_graph(100, 500, rng);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_EQ(g.num_edges(), 1000u);  // symmetrized
  std::uint64_t total = 0;
  for (Graph::Vertex v = 0; v < g.num_vertices(); ++v) total += g.degree(v);
  EXPECT_EQ(total, g.num_edges());
}

TEST(Graph, SymmetrizationAddsReverseEdges) {
  Graph g(3, {{0, 1}, {1, 2}}, /*symmetrize=*/true);
  bool found = false;
  for (std::uint64_t e = g.out_begin(1); e < g.out_end(1); ++e)
    found |= g.target(e) == 0;
  EXPECT_TRUE(found);
}

TEST(Graph, RejectsBadInput) {
  EXPECT_THROW(Graph(0, {}, false), std::invalid_argument);
  EXPECT_THROW(Graph(2, {{0, 5}}, false), std::invalid_argument);
  Rng rng(2);
  EXPECT_THROW(make_rmat_graph(0, 4, rng), std::invalid_argument);
}

TEST(Graph, WeightsInSsspRange) {
  Rng rng(3);
  const Graph g = make_uniform_graph(50, 200, rng);
  for (std::uint64_t e = 0; e < g.num_edges(); ++e) {
    EXPECT_GE(g.weight(e), 1);
    EXPECT_LE(g.weight(e), 64);
  }
}

TEST(Graph, RmatIsSkewed) {
  Rng rng(4);
  const Graph g = make_rmat_graph(10, 8, rng);
  std::uint64_t dmax = 0;
  for (Graph::Vertex v = 0; v < g.num_vertices(); ++v) dmax = std::max(dmax, g.degree(v));
  const double avg = static_cast<double>(g.num_edges()) / static_cast<double>(g.num_vertices());
  EXPECT_GT(static_cast<double>(dmax), 8.0 * avg);  // heavy-tailed degrees
}

// -------------------------------------------------------------- kernels ----

class KernelCorrectness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelCorrectness, BfsMatchesUnitDijkstra) {
  Rng rng(GetParam());
  const Graph g = make_uniform_graph(200, 800, rng);
  TieredMemory mem(big());
  AddressSpace space(mem, 0, GraphLayout::required_bytes(g), kTierOnly(Tier::kSMem));
  GraphLayout layout(space, g);
  std::vector<std::uint64_t> dist;
  const KernelStats stats = bfs(layout, 0, dist);
  EXPECT_EQ(dist, dijkstra(g, 0, /*unit_weights=*/true));
  EXPECT_GT(stats.edges_processed, 0u);
  EXPECT_GT(stats.accesses, stats.edges_processed);
}

TEST_P(KernelCorrectness, SsspMatchesDijkstra) {
  Rng rng(GetParam() + 100);
  const Graph g = make_uniform_graph(150, 600, rng);
  TieredMemory mem(big());
  AddressSpace space(mem, 0, GraphLayout::required_bytes(g), kTierOnly(Tier::kSMem));
  GraphLayout layout(space, g);
  std::vector<std::uint64_t> dist;
  sssp(layout, 0, /*delta=*/8, dist);
  EXPECT_EQ(dist, dijkstra(g, 0, /*unit_weights=*/false));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelCorrectness, ::testing::Values(11, 22, 33, 44, 55));

class SsspDeltaSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SsspDeltaSweep, DeltaInvariant) {
  // Property: delta-stepping gives the same distances for any delta.
  Rng rng(77);
  const Graph g = make_rmat_graph(8, 8, rng);
  TieredMemory mem(big());
  AddressSpace space(mem, 0, GraphLayout::required_bytes(g), kTierOnly(Tier::kSMem));
  GraphLayout layout(space, g);
  std::vector<std::uint64_t> dist;
  sssp(layout, 3, GetParam(), dist);
  EXPECT_EQ(dist, dijkstra(g, 3, false));
}

INSTANTIATE_TEST_SUITE_P(Deltas, SsspDeltaSweep, ::testing::Values(1, 2, 8, 64, 1000));

TEST(Sssp, RejectsZeroDelta) {
  Rng rng(5);
  const Graph g = make_uniform_graph(10, 20, rng);
  TieredMemory mem(big());
  AddressSpace space(mem, 0, GraphLayout::required_bytes(g), kTierOnly(Tier::kSMem));
  GraphLayout layout(space, g);
  std::vector<std::uint64_t> dist;
  EXPECT_THROW(sssp(layout, 0, 0, dist), std::invalid_argument);
}

TEST(Bfs, UnreachableVerticesStayUnreached) {
  // Two disconnected edges: 0-1 and 2-3.
  Graph g(4, {{0, 1}, {2, 3}}, true);
  TieredMemory mem(big());
  AddressSpace space(mem, 0, GraphLayout::required_bytes(g), kTierOnly(Tier::kSMem));
  GraphLayout layout(space, g);
  std::vector<std::uint64_t> dist;
  bfs(layout, 0, dist);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreached);
}

TEST(PageRank, MassIsConserved) {
  Rng rng(6);
  const Graph g = make_uniform_graph(300, 3000, rng);
  TieredMemory mem(big());
  AddressSpace space(mem, 0, GraphLayout::required_bytes(g), kTierOnly(Tier::kSMem));
  GraphLayout layout(space, g);
  std::vector<double> rank;
  pagerank(layout, 10, rank);
  double sum = 0;
  for (double r : rank) {
    EXPECT_GT(r, 0.0);
    sum += r;
  }
  // Symmetrized random graphs have no dangling nodes, so mass ~1.
  EXPECT_NEAR(sum, 1.0, 0.01);
}

TEST(PageRank, HighDegreeVerticesRankHigher) {
  // Star graph: vertex 0 connected to everyone.
  std::vector<std::pair<Graph::Vertex, Graph::Vertex>> edges;
  for (Graph::Vertex v = 1; v < 50; ++v) edges.push_back({0, v});
  Graph g(50, std::move(edges), true);
  TieredMemory mem(big());
  AddressSpace space(mem, 0, GraphLayout::required_bytes(g), kTierOnly(Tier::kSMem));
  GraphLayout layout(space, g);
  std::vector<double> rank;
  pagerank(layout, 20, rank);
  for (Graph::Vertex v = 1; v < 50; ++v) EXPECT_GT(rank[0], rank[v]);
}

TEST(Kernels, MemoryChargeMatchesAccessCount) {
  // All pages in SMem -> charged latency must be exactly accesses x 202.
  Rng rng(7);
  const Graph g = make_uniform_graph(100, 400, rng);
  TieredMemory mem(big());
  AddressSpace space(mem, 0, GraphLayout::required_bytes(g), kTierOnly(Tier::kSMem));
  GraphLayout layout(space, g);
  std::vector<std::uint64_t> dist;
  const KernelStats stats = bfs(layout, 0, dist);
  EXPECT_EQ(stats.memory_latency, stats.accesses * 202u);
}

TEST(GraphLayout, RejectsUndersizedSpace) {
  Rng rng(8);
  const Graph g = make_uniform_graph(100, 400, rng);
  TieredMemory mem(big());
  AddressSpace space(mem, 0, kPageSize, kTierOnly(Tier::kSMem));
  EXPECT_THROW(GraphLayout(space, g), std::invalid_argument);
}

}  // namespace
}  // namespace mtat
