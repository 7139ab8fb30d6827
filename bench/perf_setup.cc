// Microbenchmark: cold process set-up (the BE profile pipeline's stages).
//
// be_suite() builds each best-effort profile once per process: generate the
// input graph, count-sort it into CSR, run the kernel over a scratch address
// space with every access charged and counted. Its cache is per process, so
// this bench times the uncached public functions instead, each on a fresh
// input per repetition:
//
//   perf.rmat_edges_per_sec      make_rmat_graph (generation + CSR build),
//                                R-MAT edges drawn per second;
//   perf.csr_edges_per_sec       Graph construction alone from a uniform
//                                random edge list (the cache-hostile case),
//                                symmetrized, input edges per second;
//   perf.profile_accesses_per_sec extract_profile running SSSP over the
//                                R-MAT graph, charged accesses per second.
//
// Graph sizes follow be_suite: R-MAT scale 17 with 16 edges per vertex at the
// default preset (BEScale::kDefault), scale 10 at smoke (kTest). Each stage
// reports its best repetition (min wall), as perf_core does.
//
// Results APPEND one entry (label from MTAT_PERF_LABEL) to BENCH_setup.json
// in the working directory; tools/perf_diff gates adjacent entries
// (DESIGN.md §14.4). Wall timings are machine-dependent — this bench tracks
// the simulator's own set-up cost, not the paper's metrics.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "bench/perf_trajectory.h"
#include "obs/names.h"
#include "workloads/be/page_profile.h"
#include "workloads/graph/graph_layout.h"
#include "workloads/graph/kernels.h"

using namespace mtat;
using namespace mtat::bench;

namespace {

struct SetupSizes {
  int scale;  ///< R-MAT scale (2^scale vertices, 16 edges per vertex)
  int reps;   ///< timed repetitions per stage (best-of)
};

SetupSizes sizes_for(const std::string& preset) {
  if (preset == "large") return {18, 3};
  if (preset == "smoke") return {10, 2};
  return {17, 5};
}

constexpr int kEdgesPerVertex = 16;

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// make_rmat_graph end to end, as be_suite calls it.
double bench_rmat(const SetupSizes& s) {
  const double edges = static_cast<double>(kEdgesPerVertex) * static_cast<double>(1ull << s.scale);
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < s.reps; ++r) {
    Rng rng(11);
    const auto t0 = Clock::now();
    const Graph g = make_rmat_graph(s.scale, kEdgesPerVertex, rng);
    best = std::min(best, secs_since(t0));
  }
  return edges / best;
}

/// Graph's CSR build alone. The input list is copied before the clock
/// starts, so only the constructor is timed.
double bench_csr(const SetupSizes& s) {
  const std::uint64_t n = 1ull << s.scale;
  Rng rng(22);
  std::vector<std::pair<Graph::Vertex, Graph::Vertex>> edges(kEdgesPerVertex * n);
  for (auto& [u, v] : edges) {
    u = static_cast<Graph::Vertex>(rng.next_below(n));
    v = static_cast<Graph::Vertex>(rng.next_below(n));
  }
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < s.reps; ++r) {
    auto input = edges;
    Rng weights(33);
    const auto t0 = Clock::now();
    const Graph g(n, std::move(input), /*symmetrize=*/true, &weights);
    best = std::min(best, secs_since(t0));
  }
  return static_cast<double>(edges.size()) / best;
}

/// extract_profile over SSSP on the R-MAT graph: the charged-access path
/// (AddressSpace -> TieredMemory latency -> counting observer).
double bench_profile(const SetupSizes& s) {
  Rng rng(11);
  const Graph g = make_rmat_graph(s.scale, kEdgesPerVertex, rng);
  std::uint64_t accesses = 0;
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < s.reps; ++r) {
    const auto t0 = Clock::now();
    extract_profile(GraphLayout::required_bytes(g), [&](AddressSpace& space) {
      GraphLayout layout(space, g);
      std::vector<std::uint64_t> dist;
      const KernelStats stats = sssp(layout, /*source=*/0, /*delta=*/8, dist);
      accesses = stats.accesses;
      return stats.edges_processed;
    });
    best = std::min(best, secs_since(t0));
  }
  return static_cast<double>(accesses) / best;
}

}  // namespace

int main() {
  const std::string preset = scale_preset_from_env();
  RootContext root = banner("perf_setup", "microbench: cold set-up stages (BE profile pipeline)");
  const SetupSizes s = sizes_for(preset);

  PerfEntry entry;
  entry.label = Env::get().perf_label;
  entry.scale = preset;
  std::printf("%-36s %14s\n", "metric", "ops/s");
  const auto run_one = [&](const char* name, double value) {
    entry.metrics.emplace_back(name, value);
    std::printf("%-36s %14.0f\n", name, value);
  };
  run_one(obs::names::kPerfRmatEdgesPerSec, bench_rmat(s));
  run_one(obs::names::kPerfCsrEdgesPerSec, bench_csr(s));
  run_one(obs::names::kPerfProfileAccessesPerSec, bench_profile(s));

  return append_perf_trajectory("BENCH_setup.json", "perf_setup", std::move(entry)) ? 0 : 1;
}
