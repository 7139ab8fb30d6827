// Extension: fleet-scale SLO compliance under tenant placement policies
// (DESIGN.md §13, beyond the paper's single-node evaluation). A ClusterSim
// fleet of tiered-memory nodes — each a full ColocationSim under a baseline
// tiering policy — serves the same seed-deterministic tenant population
// routed three ways: random (null hypothesis), FMem bin-packing (capacity-
// centric best-fit), and telemetry-aware (balances on the `cluster.node_*`
// gauges the previous round exported). Reports cluster-wide SLO compliance,
// the tail-of-tails LC P99 (worst node, and the 99th percentile across node
// P99s), and aggregate fast-tier utilization per policy.
//
// Expected shape: random strands demand on a few unlucky nodes (overloaded
// nodes, compliance drops); bin_packing fixes footprint spill but still
// ignores request rate; telemetry evens out both, buying the highest
// compliance and the flattest tail at the price of some rebalancing churn.
//
// Every policy is judged on the identical fleet, tenants, and node seeds,
// and pays the same two placement/simulation rounds — the comparison is
// simulate-time fair, and the whole report is bit-identical whatever
// MTAT_JOBS (DESIGN.md §11 discipline at fleet scale).
#include "bench/cluster_env.h"
#include "common/csv.h"

using namespace mtat;
using namespace mtat::bench;

int main() {
  const Scale sc = scale_from_env();
  RootContext root =
      banner("ext_cluster_slo", "extension: fleet-scale tenant placement (DESIGN.md §13)");
  experiments::ParallelRunner runner = make_runner();
  const LCConfig redis = scaled_lc_config(redis_config(), sc);
  // The static per-node capacity estimate the policies receive is FMEM_ALL's
  // measured peak for the node template's co-location setting — the same
  // calibration the single-node benches use.
  const double peak = fmem_all_peak_krps(sc, redis, runner, root, /*n_be=*/2);
  const cluster::ClusterConfig cc = make_cluster_config(sc, redis, peak);
  std::printf("fleet: %d nodes x (1 LC + 2 BE), node capacity %.2f KRPS, %d tenants at %.0f%% "
              "fleet utilization\n",
              cc.nodes, peak, cc.tenants > 0 ? cc.tenants : 4 * cc.nodes,
              100.0 * cc.target_utilization);

  CsvWriter fleet_csv("ext_cluster_slo.csv",
                      {"placement", "nodes", "tenants", "offered_krps", "completed_krps",
                       "slo_compliance_pct", "tail_p99_ms", "p99_of_p99_ms", "fmem_util_pct",
                       "overloaded_nodes", "rebalanced_tenants"});
  CsvWriter node_csv("ext_cluster_slo_nodes.csv",
                     {"placement", "node", "tenants", "offered_krps", "p99_ms",
                      "slo_violation_pct", "fmem_util_pct"});

  std::printf("%-12s %9s %11s %7s %11s %13s %9s %6s %7s\n", "placement", "offered",
              "completed", "slo%", "tail_p99", "p99_of_p99", "fmem%", "over", "moved");
  // Policies run serially at the top level — ClusterSim::run drives the
  // shared runner's fan-out itself (run_all is non-reentrant) — and each one
  // gets a fresh ClusterSim built from the same config, hence the identical
  // tenant population and node seeds.
  for (const std::string& name : cluster::all_placement_names()) {
    const auto policy = cluster::make_placement(name);
    cluster::ClusterSim sim(cc, &root);
    const cluster::ClusterResult r = sim.run(*policy, &runner);
    fleet_csv.row(name, {static_cast<double>(cc.nodes), static_cast<double>(sim.tenants().size()),
                         r.offered_krps, r.completed_krps, r.slo_compliance_pct, r.max_p99_ms,
                         r.p99_of_p99_ms, r.fmem_util_pct, static_cast<double>(r.overloaded_nodes),
                         static_cast<double>(r.rebalanced_tenants)});
    for (const cluster::NodeResult& nr : r.nodes)
      node_csv.row(name, {static_cast<double>(nr.node_id), static_cast<double>(nr.tenants),
                          nr.offered_krps, nr.p99_ms, nr.slo_violation_pct, nr.fmem_util_pct});
    std::printf("%-12s %8.1fk %10.1fk %6.2f%% %9.3fms %11.3fms %8.1f%% %6d %7d\n", name.c_str(),
                r.offered_krps, r.completed_krps, r.slo_compliance_pct, r.max_p99_ms,
                r.p99_of_p99_ms, r.fmem_util_pct, r.overloaded_nodes, r.rebalanced_tenants);
  }
  std::printf("\nexpected: telemetry >= bin_packing >= random on compliance; random shows the "
              "most overloaded nodes and the fattest tail of tails\n");
  return 0;
}
