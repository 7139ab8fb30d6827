// Extensions beyond the paper's evaluation (Discussion §7 + related work):
//
//  1. vTMM-like per-tenant hot-set-proportional allocation (Sha et al.,
//     EuroSys'23) added to the comparison — still frequency-driven, so the
//     bursty LC tenant should measure a small hot set and miss its SLO under
//     load, despite being partitioned.
//
//  2. The tier-bandwidth contention model with MTAT's bandwidth-aware PP-E
//     backoff: when FMem bandwidth saturates, refinement stops intensifying
//     the fast tier. Compared against plain MTAT on a bandwidth-constrained
//     platform.
#include "bench/harness.h"
#include "common/csv.h"

using namespace mtat;
using namespace mtat::bench;

int main() {
  const Scale sc = scale_from_env();
  RootContext root = banner("ext_bandwidth_baselines", "extensions (paper §7 / related work)");
  experiments::ParallelRunner runner = make_runner();
  const LCConfig redis = scaled_lc_config(redis_config(), sc);
  const double peak = fmem_all_peak_krps(sc, redis, runner, root);
  CsvWriter csv("ext_bandwidth_baselines.csv",
                {"experiment", "config", "p99_ms", "viol_pct", "fairness", "be_tput"});

  // --- Extension 1: related-work baselines on the dynamic-load experiment ---
  // vTMM-like (hot-set-proportional partitions), DAMON/Telescope-like
  // (region-granular), MEMTIS-HP (page-size determination) vs MTAT/MEMTIS.
  // Independent runs — one spec per policy.
  const std::vector<PolicyKind> policies = {PolicyKind::kMtatFull, PolicyKind::kVtmm,
                                            PolicyKind::kDamon, PolicyKind::kMemtisHp,
                                            PolicyKind::kMemtis};
  std::vector<SimResult> ext1(policies.size());
  {
    std::vector<experiments::RunSpec> specs;
    for (std::size_t i = 0; i < policies.size(); ++i)
      specs.push_back({policy_name(policies[i]),
                       [&sc, &redis, peak, &policies, &ext1, i](obs::RunContext& ctx) {
                         SimConfig cfg = make_sim_config(sc, redis, policies[i]);
                         ColocationSim sim(cfg, &ctx);
                         train_if_mtat(sim, sc.train_epochs, peak);
                         const LoadPattern pattern = LoadPattern::figure7(peak * 1000.0);
                         sim.run(pattern, pattern.total_length());
                         ext1[i] = sim.result();
                       }});
    runner.run_all(specs, root);
  }
  std::printf("[1] extended baseline set (Figure-5 conditions)\n");
  std::printf("%-13s %10s %9s %10s %13s\n", "policy", "P99(ms)", "viol%", "fairness",
              "BE tput");
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const SimResult& r = ext1[i];
    std::printf("%-13s %10.2f %8.1f%% %10.3f %13.3e\n", policy_name(policies[i]),
                r.lc_p99_ms, 100.0 * r.slo_violation_rate, r.fairness,
                r.be_total_throughput);
    csv.row(std::vector<std::string>{"vtmm_comparison", policy_name(policies[i])},
            {r.lc_p99_ms, 100.0 * r.slo_violation_rate, r.fairness, r.be_total_throughput});
  }

  // --- Extension 2: bandwidth-aware PP-E under FMem bandwidth pressure ------
  struct BwOutcome {
    SimResult r;
    double fmem_factor = 1.0;
  };
  BwOutcome ext2[2];
  {
    std::vector<experiments::RunSpec> specs;
    for (int a = 0; a < 2; ++a)
      specs.push_back({a != 0 ? "mtat+bw_backoff" : "mtat_bw_blind",
                       [&sc, &redis, peak, &ext2, a](obs::RunContext& ctx) {
                         SimConfig cfg = make_sim_config(sc, redis, PolicyKind::kMtatFull);
                         cfg.bandwidth.enabled = true;
                         // Size FMem bandwidth so the BE fleet can saturate
                         // it when fully resident.
                         cfg.bandwidth.fmem_accesses_per_sec = 120e6;
                         cfg.bandwidth.smem_accesses_per_sec = 80e6;
                         if (a != 0) cfg.mtat.ppe.bandwidth_backoff_factor = 1.3;
                         ColocationSim sim(cfg, &ctx);
                         train_if_mtat(sim, sc.train_epochs, peak);
                         const LoadPattern pattern = LoadPattern::figure7(peak * 1000.0);
                         sim.run(pattern, pattern.total_length());
                         ext2[a].r = sim.result();
                         ext2[a].fmem_factor = sim.mem().contention_factor(kFastestTier);
                       }});
    runner.run_all(specs, root);
  }
  std::printf("\n[2] bandwidth-aware PP-E backoff on a constrained platform\n");
  std::printf("%-22s %10s %9s %13s %9s\n", "config", "P99(ms)", "viol%", "BE tput",
              "fmem x");
  for (int a = 0; a < 2; ++a) {
    const SimResult& r = ext2[a].r;
    const char* label = a != 0 ? "mtat+bw_backoff" : "mtat (bw-blind)";
    std::printf("%-22s %10.2f %8.1f%% %13.3e %9.2f\n", label, r.lc_p99_ms,
                100.0 * r.slo_violation_rate, r.be_total_throughput, ext2[a].fmem_factor);
    csv.row(std::vector<std::string>{"bandwidth_backoff", label},
            {r.lc_p99_ms, 100.0 * r.slo_violation_rate, r.fairness, r.be_total_throughput});
  }
  std::printf("\nexpected: vTMM partitions per tenant but still sizes the LC partition\n"
              "by measured hotness, so it violates under surges like MEMTIS; the\n"
              "bandwidth backoff trades a little placement optimality for lower\n"
              "latency inflation when FMem bandwidth is the bottleneck.\n");
  return 0;
}
