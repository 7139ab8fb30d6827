// Figure 9 + Table 4: Redis co-located with the four BE workloads at constant
// 20/50/80% of max load. Reports BE fairness and throughput with the FMem
// split across all tenants (the stacked-bar data of Figure 9) and the SLO
// violation rates of Table 4.
//
// Expected shape: MTAT variants sustain 0% violations at every level; MEMTIS
// violates at 50% (paper: 11.6%) and catastrophically at 80% (99%); TPP is
// worse still; MTAT (Full) has the best fairness at every level while MEMTIS
// keeps the highest raw BE throughput.
#include "bench/harness.h"
#include "common/csv.h"

using namespace mtat;
using namespace mtat::bench;

int main() {
  const Scale sc = scale_from_env();
  RootContext root = banner("fig9_table4_load_levels", "Figure 9 and Table 4");
  experiments::ParallelRunner runner = make_runner();
  const LCConfig redis = scaled_lc_config(redis_config(), sc);
  const double peak = fmem_all_peak_krps(sc, redis, runner, root);
  std::printf("load levels relative to FMEM_ALL measured max = %.2f KRPS\n", peak);
  CsvWriter csv("fig9_table4_load_levels.csv",
                {"policy", "load_pct", "fairness_min_np", "be_total_throughput",
                 "slo_violation_pct", "fmem_lc", "fmem_be0", "fmem_be1", "fmem_be2",
                 "fmem_be3"});

  const std::vector<double> levels = {0.2, 0.5, 0.8};
  const std::vector<PolicyKind> policies = {PolicyKind::kMtatFull, PolicyKind::kMtatLcOnly,
                                            PolicyKind::kMemtis, PolicyKind::kTpp};

  // Every (policy, level) cell is independent — own agent, own training, own
  // sim — so the whole grid fans across the runner; rows are reported in the
  // deterministic spec order below regardless of which worker finishes first.
  struct Cell {
    PolicyKind policy = PolicyKind::kMtatFull;
    double level = 0;
    double fairness = 0, tput = 0, viol_pct = 0, fmem_lc = 0;
    std::vector<double> be_share;
  };
  std::vector<Cell> cells;
  for (PolicyKind policy : policies)
    for (double level : levels) {
      Cell cell;
      cell.policy = policy;
      cell.level = level;
      cells.push_back(cell);
    }

  std::vector<experiments::RunSpec> specs;
  specs.reserve(cells.size());
  for (Cell& cell : cells) {
    specs.push_back({std::string(policy_name(cell.policy)) + "@" +
                         std::to_string(static_cast<int>(cell.level * 100)) + "%",
                     [&sc, &redis, peak, &cell](obs::RunContext& ctx) {
                       SimConfig cfg = make_sim_config(sc, redis, cell.policy);
                       std::unique_ptr<SacAgent> agent;
                       if (is_mtat(cell.policy)) {
                         agent = std::make_unique<SacAgent>(SacConfig{});
                         cfg.shared_agent = agent.get();
                       }
                       ColocationSim sim(cfg, &ctx);
                       train_if_mtat(sim, sc.train_epochs, peak);
                       const LoadPattern pattern =
                           LoadPattern::constant(cell.level * peak * 1000.0);
                       sim.run(pattern, seconds(10), /*measure=*/false);  // settle
                       sim.reset_stats();
                       sim.run(pattern, sc.measure_window);
                       const SimResult r = sim.result();
                       cell.fairness = r.fairness;
                       cell.tput = r.be_total_throughput;
                       cell.viol_pct = 100.0 * r.slo_violation_rate;
                       cell.fmem_lc = r.series.back().lc_fmem_share;
                       cell.be_share = r.series.back().be_fmem_share;
                     }});
  }
  runner.run_all(specs, root);

  std::printf("%-13s %7s %10s %13s %8s   FMem split (lc|be...)\n", "policy", "load%",
              "fairness", "BE tput", "viol%");
  for (const Cell& cell : cells) {
    std::vector<double> row = {cell.level * 100, cell.fairness, cell.tput, cell.viol_pct,
                               cell.fmem_lc};
    for (int b = 0; b < 4; ++b)
      row.push_back(b < static_cast<int>(cell.be_share.size()) ? cell.be_share[b] : 0.0);
    csv.row(policy_name(cell.policy), row);
    std::printf("%-13s %6.0f%% %10.3f %13.3e %7.1f%%   %.2f |", policy_name(cell.policy),
                cell.level * 100, cell.fairness, cell.tput, cell.viol_pct, cell.fmem_lc);
    for (double s : cell.be_share) std::printf(" %.2f", s);
    std::printf("\n");
  }
  std::printf("\npaper Table 4 (viol%%): MTAT 0/0/0, MEMTIS 0/11.6/99, TPP 0/30.7/100\n");
  return 0;
}
