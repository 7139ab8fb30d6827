// Figures 5 and 6: the headline dynamic-load experiment. Each of the four LC
// workloads is co-located with the four BE workloads; the offered load
// follows the Figure-7 trapezoid. For every policy the binary reports the
// P99-over-time and per-workload FMem-share series (Figure 5) plus the BE
// fairness (min NP) and total throughput of the same runs (Figure 6).
//
// Expected shapes (paper §5.1): MEMTIS/TPP/SMEM_ALL violate the SLO through
// the high-load phase; both MTAT variants track the load — small reservation
// at low load, nearly the whole FMem at the peak — and keep P99 under the
// SLO; MTAT (Full) posts the best BE fairness, MEMTIS the best raw BE
// throughput, with MTAT's throughput penalty bounded (paper: <=19%).
#include "bench/harness.h"
#include "common/csv.h"

using namespace mtat;
using namespace mtat::bench;

int main() {
  const Scale sc = scale_from_env();
  RootContext root = banner("fig5_fig6_dynamic_load", "Figures 5 and 6");
  experiments::ParallelRunner runner = make_runner();
  CsvWriter series_csv("fig5_series.csv",
                       {"lc", "policy", "t_sec", "offered_krps", "p99_ms", "lc_fmem_share",
                        "be0_share", "be1_share", "be2_share", "be3_share"});
  CsvWriter metrics_csv("fig6_be_metrics.csv",
                        {"lc", "policy", "fairness_min_np", "be_total_throughput",
                         "slo_violation_rate", "lc_p99_ms"});

  for (const LCConfig& lc : scaled_lc_configs(sc)) {
    std::printf("\n===== LC workload: %s =====\n", lc.name.c_str());
    const double peak = fmem_all_peak_krps(sc, lc, runner, root);
    std::printf("pattern peak = FMEM_ALL measured max = %.2f KRPS\n", peak);

    // The six policies are independent runs over the same pattern — fan them
    // across the runner, then report in the paper's policy order.
    const std::vector<PolicyKind> policies = all_policies();
    struct Outcome {
      SimResult r;
      SimTime t0 = 0;
    };
    std::vector<Outcome> outcomes(policies.size());
    std::vector<experiments::RunSpec> specs;
    specs.reserve(policies.size());
    for (std::size_t i = 0; i < policies.size(); ++i) {
      specs.push_back({std::string(lc.name) + "/" + policy_name(policies[i]),
                       [&sc, &lc, peak, &policies, &outcomes, i](obs::RunContext& ctx) {
                         SimConfig cfg = make_sim_config(sc, lc, policies[i]);
                         ColocationSim sim(cfg, &ctx);
                         train_if_mtat(sim, sc.train_epochs, peak);
                         const LoadPattern pattern = LoadPattern::figure7(peak * 1000.0);
                         outcomes[i].t0 = sim.now();
                         sim.run(pattern, pattern.total_length());
                         outcomes[i].r = sim.result();
                       }});
    }
    runner.run_all(specs, root);

    std::printf("%-13s %10s %9s %10s %13s\n", "policy", "P99(ms)", "viol%", "fairness",
                "BE tput");
    for (std::size_t i = 0; i < policies.size(); ++i) {
      const PolicyKind policy = policies[i];
      const SimResult& r = outcomes[i].r;
      for (const auto& tp : r.series) {
        std::vector<double> row = {tp.t_sec - to_seconds(outcomes[i].t0),
                                   tp.offered_rps / 1000.0, tp.lc_p99_ms, tp.lc_fmem_share};
        for (int b = 0; b < 4; ++b)
          row.push_back(b < static_cast<int>(tp.be_fmem_share.size()) ? tp.be_fmem_share[b]
                                                                      : 0.0);
        series_csv.row({lc.name, policy_name(policy)}, row);
      }
      metrics_csv.row({lc.name, policy_name(policy)},
                      {r.fairness, r.be_total_throughput, r.slo_violation_rate, r.lc_p99_ms});
      std::printf("%-13s %10.2f %8.1f%% %10.3f %13.3e\n", policy_name(policy), r.lc_p99_ms,
                  100.0 * r.slo_violation_rate, r.fairness, r.be_total_throughput);
    }
  }
  std::printf("\nFigure 6 ratios are in fig6_be_metrics.csv; per-interval series for the\n"
              "Figure 5 panels are in fig5_series.csv.\n");
  return 0;
}
