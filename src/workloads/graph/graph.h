// Host-side CSR graph and synthetic generators.
//
// The topology lives in ordinary host memory (the simulator only needs the
// *addresses* the kernels touch, which the GraphLayout derives); generators
// cover the GAPBS-style inputs: uniform-random (Erdős–Rényi-ish) and R-MAT
// (Kronecker), the latter giving the skewed degree distributions that make
// graph page-access profiles non-uniform.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace mtat {

class Graph {
 public:
  using Vertex = std::uint32_t;

  Graph(std::uint64_t n, std::vector<std::pair<Vertex, Vertex>> edges, bool symmetrize,
        Rng* weight_rng = nullptr);

  std::uint64_t num_vertices() const { return offsets_.size() - 1; }
  std::uint64_t num_edges() const { return targets_.size(); }

  std::uint64_t out_begin(Vertex v) const { return offsets_[v]; }
  std::uint64_t out_end(Vertex v) const { return offsets_[v + 1]; }
  std::uint64_t degree(Vertex v) const { return out_end(v) - out_begin(v); }
  Vertex target(std::uint64_t e) const { return targets_[e]; }
  std::uint8_t weight(std::uint64_t e) const { return weights_[e]; }

  const std::vector<std::uint64_t>& offsets() const { return offsets_; }
  const std::vector<Vertex>& targets() const { return targets_; }

 private:
  std::vector<std::uint64_t> offsets_;  // n+1 entries
  std::vector<Vertex> targets_;
  std::vector<std::uint8_t> weights_;  // per-edge weight in [1, 64], SSSP-style
};

/// Uniform-random graph: m directed edges with independently uniform endpoints
/// (self-loops removed), symmetrized like GAPBS's -u inputs.
Graph make_uniform_graph(std::uint64_t n, std::uint64_t m, Rng& rng);

/// R-MAT / Kronecker edge list over 2^scale vertices: edges_per_vertex *
/// 2^scale draws with GAPBS's default (A,B,C) = (0.57, 0.19, 0.19), `scale`
/// doubles each, in draw order; self-loops are dropped.
std::vector<std::pair<Graph::Vertex, Graph::Vertex>> make_rmat_edges(int scale,
                                                                     int edges_per_vertex,
                                                                     Rng& rng);

/// The symmetrized graph of make_rmat_edges, with per-edge weights drawn
/// from `rng` after the edges.
Graph make_rmat_graph(int scale, int edges_per_vertex, Rng& rng);

}  // namespace mtat
