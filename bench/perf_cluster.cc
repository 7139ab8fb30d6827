// Microbenchmark: ClusterSim throughput and shard fan-out scaling.
//
// Runs the fleet simulation at a ladder of node counts (quarter, half, full
// fleet for the scale preset; MTAT_NODES overrides the full count) under the
// bin-packing placement and rates the work done — simulated node-seconds and
// node ticks — against host wall time. Reported per point: sim-steps/s,
// simulated node-seconds per wall second, and the speedup over the ladder's
// smallest fleet normalized to fleet size (fan-out efficiency: 1.0 means a
// 4x fleet costs exactly 4x the wall time).
//
// Like perf_core, results APPEND: every run adds one entry (label from
// MTAT_PERF_LABEL) to BENCH_cluster.json in the working directory, with one
// sim-steps/s metric per ladder rung, so the committed file is a
// same-machine trajectory and tools/perf_diff gates adjacent entries
// (DESIGN.md §14). Wall timings use steady_clock and are inherently
// machine-dependent — this bench is for tracking the simulator's own
// performance, not the paper's metrics.
#include <chrono>

#include "bench/cluster_env.h"
#include "bench/perf_trajectory.h"
#include "obs/names.h"

using namespace mtat;
using namespace mtat::bench;

namespace {

struct Point {
  int nodes = 0;
  double wall_s = 0;
  double node_sim_seconds = 0;
  double sim_steps = 0;
};

}  // namespace

int main() {
  const Scale sc = scale_from_env();
  RootContext root =
      banner("perf_cluster", "microbench: cluster sim-steps/s and shard fan-out scaling");
  experiments::ParallelRunner runner = make_runner();
  const LCConfig redis = scaled_lc_config(redis_config(), sc);
  // Static capacity estimate only — a perf bench has no use for the
  // calibration bisection's extra minutes.
  cluster::ClusterConfig base = make_cluster_config(sc, redis, 0.6 * redis.max_load_krps);
  // Short windows: this measures simulator throughput, not tenant SLOs.
  base.settle = milliseconds(500);
  base.probe_window = seconds(1);
  base.measure_window = seconds(1);

  const auto policy = cluster::make_placement("bin_packing");
  const int full = base.nodes;
  const std::vector<int> ladder = {std::max(1, full / 4), std::max(1, full / 2), full};
  std::vector<Point> points;
  std::printf("%7s %9s %12s %14s %12s\n", "nodes", "wall_s", "sim_steps/s", "sim_s/wall_s",
              "fanout_eff");
  for (int n : ladder) {
    cluster::ClusterConfig cc = base;
    cc.nodes = n;
    cc.tenants = 4 * n;
    cluster::ClusterSim sim(cc, &root);
    const auto t0 = std::chrono::steady_clock::now();
    const cluster::ClusterResult r = sim.run(*policy, &runner);
    const auto t1 = std::chrono::steady_clock::now();
    Point p;
    p.nodes = n;
    p.wall_s = std::chrono::duration<double>(t1 - t0).count();
    p.node_sim_seconds = r.node_sim_seconds;
    p.sim_steps = static_cast<double>(r.sim_steps);
    points.push_back(p);
    const Point& first = points.front();
    // Wall time per node, relative to the smallest fleet: 1.0 = linear.
    const double eff = (first.wall_s / static_cast<double>(first.nodes)) /
                       (p.wall_s / static_cast<double>(p.nodes));
    std::printf("%7d %9.2f %12.0f %14.1f %12.2f\n", n, p.wall_s, p.sim_steps / p.wall_s,
                p.node_sim_seconds / p.wall_s, eff);
  }

  PerfEntry entry;
  entry.label = Env::get().perf_label;
  entry.scale = scale_preset_from_env();
  // One rate per ladder rung, under fixed names so perf_diff can compare
  // adjacent entries metric-by-metric (the key set must match across runs).
  static const char* const kRungNames[] = {
      obs::names::kPerfClusterQuarterStepsPerSec,
      obs::names::kPerfClusterHalfStepsPerSec,
      obs::names::kPerfClusterFullStepsPerSec,
  };
  for (std::size_t i = 0; i < points.size(); ++i)
    entry.metrics.emplace_back(kRungNames[i], points[i].sim_steps / points[i].wall_s);

  return append_perf_trajectory("BENCH_cluster.json", "perf_cluster", std::move(entry))
             ? 0
             : 1;
}
