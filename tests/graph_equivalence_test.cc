// Differential test for the set-up rewrite of the graph substrate.
//
// RefRmatEdges and RefGraph below transcribe the earlier implementations:
// an R-MAT generator that picks each quadrant with an if/else chain, and a
// CSR build that appends the reversed edges to the list (keeping both lists
// alive) and counting-sorts the doubled list. They are the executable spec
// the branchless generator and the copy-free CSR build must reproduce
// exactly: the same edge list in the same order, the same offsets, targets
// and weights, and the same number of RNG draws (checked by drawing on from
// both generators).
//
// The last two tests pin FNV-1a digests of the four be_suite() profiles,
// computed with the earlier implementations. Any change to the generators,
// the CSR order, the kernels or the charged-access path that moves a single
// profile weight fails them.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/digest.h"
#include "common/rng.h"
#include "workloads/be/be_suite.h"
#include "workloads/graph/graph.h"

namespace mtat {
namespace {

using EdgeList = std::vector<std::pair<Graph::Vertex, Graph::Vertex>>;

EdgeList RefRmatEdges(int scale, int edges_per_vertex, Rng& rng) {
  const std::uint64_t n = 1ull << scale;
  const std::uint64_t m = n * static_cast<std::uint64_t>(edges_per_vertex);
  constexpr double kA = 0.57, kB = 0.19, kC = 0.19;
  EdgeList edges;
  edges.reserve(m);
  for (std::uint64_t i = 0; i < m; ++i) {
    std::uint64_t u = 0, v = 0;
    for (int bit = 0; bit < scale; ++bit) {
      const double r = rng.next_double();
      u <<= 1;
      v <<= 1;
      if (r < kA) {
        // top-left: neither bit set
      } else if (r < kA + kB) {
        v |= 1;
      } else if (r < kA + kB + kC) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    if (u != v) edges.emplace_back(static_cast<Graph::Vertex>(u), static_cast<Graph::Vertex>(v));
  }
  return edges;
}

struct RefGraph {
  std::vector<std::uint64_t> offsets;
  std::vector<Graph::Vertex> targets;
  std::vector<std::uint8_t> weights;

  RefGraph(std::uint64_t n, EdgeList edges, bool symmetrize, Rng* weight_rng) {
    if (symmetrize) {
      const std::size_t orig = edges.size();
      edges.reserve(orig * 2);
      for (std::size_t i = 0; i < orig; ++i) edges.emplace_back(edges[i].second, edges[i].first);
    }
    offsets.assign(n + 1, 0);
    for (const auto& [u, v] : edges) {
      if (u >= n || v >= n) throw std::invalid_argument("RefGraph: edge endpoint out of range");
      offsets[u + 1]++;
    }
    for (std::uint64_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];
    targets.resize(edges.size());
    std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& [u, v] : edges) targets[cursor[u]++] = v;
    weights.resize(edges.size());
    for (std::size_t e = 0; e < weights.size(); ++e)
      weights[e] = weight_rng ? static_cast<std::uint8_t>(1 + weight_rng->next_below(64))
                              : static_cast<std::uint8_t>(1 + (e * 2654435761u) % 64);
  }
};

void ExpectSameGraph(const RefGraph& ref, const Graph& g) {
  ASSERT_EQ(g.offsets(), ref.offsets);
  ASSERT_EQ(g.targets(), ref.targets);
  ASSERT_EQ(g.num_edges(), ref.weights.size());
  for (std::uint64_t e = 0; e < g.num_edges(); ++e)
    ASSERT_EQ(g.weight(e), ref.weights[e]) << "edge " << e;
}

/// Both generators must have consumed exactly the same draws.
void ExpectSameRngState(Rng& a, Rng& b) {
  for (int i = 0; i < 4; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

constexpr std::uint64_t kSeeds[] = {1, 7, 11, 33, 20261017};

TEST(GraphEquivalence, RmatEdgeListsMatchTheBranchyGenerator) {
  for (const std::uint64_t seed : kSeeds) {
    for (int scale = 1; scale <= 12; ++scale) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " scale " + std::to_string(scale));
      Rng ref_rng(seed), rng(seed);
      const EdgeList ref = RefRmatEdges(scale, 8, ref_rng);
      const EdgeList got = make_rmat_edges(scale, 8, rng);
      ASSERT_EQ(got, ref);
      ExpectSameRngState(ref_rng, rng);
    }
  }
}

TEST(GraphEquivalence, SelfLoopsAreDroppedAtTinyScales) {
  // At scale 1 a draw lands on the diagonal about 60% of the time, so the
  // drop rule shapes the list; both generators must drop the same draws.
  Rng ref_rng(5), rng(5);
  const EdgeList ref = RefRmatEdges(1, 64, ref_rng);
  const EdgeList got = make_rmat_edges(1, 64, rng);
  EXPECT_LT(ref.size(), 128u);
  EXPECT_EQ(got, ref);
  for (const auto& [u, v] : got) EXPECT_NE(u, v);
}

TEST(GraphEquivalence, RmatGraphsMatchTheDoubledListCsr) {
  for (const std::uint64_t seed : kSeeds) {
    for (int scale = 1; scale <= 12; ++scale) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " scale " + std::to_string(scale));
      Rng ref_rng(seed), rng(seed);
      const RefGraph ref(1ull << scale, RefRmatEdges(scale, 16, ref_rng), /*symmetrize=*/true,
                         &ref_rng);
      const Graph got = make_rmat_graph(scale, 16, rng);
      ExpectSameGraph(ref, got);
      ExpectSameRngState(ref_rng, rng);
    }
  }
}

TEST(GraphEquivalence, CsrMatchesWithAndWithoutSymmetrizeOrWeightRng) {
  for (const std::uint64_t seed : kSeeds) {
    Rng gen(seed);
    const std::uint64_t n = 1 + gen.next_below(300);
    EdgeList edges(gen.next_below(4 * n));
    // Arbitrary lists: self-loops and duplicate edges included, which the
    // Graph constructor (unlike the generators) keeps.
    for (auto& [u, v] : edges) {
      u = static_cast<Graph::Vertex>(gen.next_below(n));
      v = static_cast<Graph::Vertex>(gen.next_below(n));
    }
    for (const bool symmetrize : {false, true}) {
      for (const bool with_rng : {false, true}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " symmetrize " +
                     std::to_string(symmetrize) + " weight rng " + std::to_string(with_rng));
        Rng ref_rng(seed + 1), rng(seed + 1);
        const RefGraph ref(n, edges, symmetrize, with_rng ? &ref_rng : nullptr);
        const Graph got(n, edges, symmetrize, with_rng ? &rng : nullptr);
        ExpectSameGraph(ref, got);
        ExpectSameRngState(ref_rng, rng);
      }
    }
  }
}

TEST(GraphEquivalence, EmptyListAndOutOfRangeEndpoints) {
  const Graph empty(4, {}, /*symmetrize=*/true);
  EXPECT_EQ(empty.num_vertices(), 4u);
  EXPECT_EQ(empty.num_edges(), 0u);
  // A bad endpoint on either side throws, with or without symmetrize, and
  // before any weight is drawn.
  for (const bool symmetrize : {false, true}) {
    Rng rng(3), untouched(3);
    EXPECT_THROW(Graph(3, {{0, 1}, {1, 3}}, symmetrize, &rng), std::invalid_argument);
    EXPECT_THROW(Graph(3, {{3, 1}}, symmetrize, &rng), std::invalid_argument);
    ExpectSameRngState(rng, untouched);
  }
}

/// FNV-1a over a profile: page count, every weight's bits, then
/// accesses_per_iteration's bits.
std::uint64_t ProfileDigest(const PageProfile& p) {
  Fnv1a h;
  h.add(p.weight);
  h.add(p.accesses_per_iteration);
  return h.value();
}

struct PinnedProfile {
  const char* name;
  std::uint64_t digest;
};

void ExpectPinnedSuite(BEScale scale, const PinnedProfile (&pins)[4]) {
  const std::vector<BEConfig> suite = be_suite(scale, Bytes{140} << 20, /*cores=*/4);
  ASSERT_EQ(suite.size(), 4u);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(suite[i].name, pins[i].name);
    EXPECT_EQ(ProfileDigest(suite[i].profile), pins[i].digest)
        << suite[i].name << " profile moved";
  }
}

TEST(GraphEquivalence, BeSuiteProfilesArePinnedAtTestScale) {
  constexpr PinnedProfile kPins[4] = {{"sssp", 0x7bbdd485deb2d69eull},
                                      {"bfs", 0x82913e5068da84e2ull},
                                      {"pr", 0x7ddf623a6b75223eull},
                                      {"xsbench", 0x90ba63c3bc787055ull}};
  ExpectPinnedSuite(BEScale::kTest, kPins);
}

TEST(GraphEquivalence, BeSuiteProfilesArePinnedAtDefaultScale) {
  constexpr PinnedProfile kPins[4] = {{"sssp", 0xef1af014a8c73eb6ull},
                                      {"bfs", 0x0bb6e0fe74362282ull},
                                      {"pr", 0x76b14f47e2974a31ull},
                                      {"xsbench", 0xa8262a4bbde680f7ull}};
  ExpectPinnedSuite(BEScale::kDefault, kPins);
}

}  // namespace
}  // namespace mtat
