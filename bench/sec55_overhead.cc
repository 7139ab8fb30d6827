// §5.5: MTAT framework overhead, measured during the Redis overall-performance
// run — PP-M's decision cost (RL inference + SA search, reported per
// partitioning interval and as a fraction of one core at the paper's 60 s
// real-time interval) and PP-E's migration bandwidth consumption.
//
// Paper: PP-M + sampling below 7% of one core; PP-E averages ~4 GB/s of
// migration traffic against a 25.6 GB/s channel.
#include "bench/harness.h"
#include "common/csv.h"

using namespace mtat;
using namespace mtat::bench;

int main() {
  const Scale sc = scale_from_env();
  RootContext root = banner("sec55_overhead", "Section 5.5");
  experiments::ParallelRunner runner = make_runner();
  const LCConfig redis = scaled_lc_config(redis_config(), sc);
  const double peak = fmem_all_peak_krps(sc, redis, runner, root);
  SimConfig cfg = make_sim_config(sc, redis, PolicyKind::kMtatFull);

  // The overhead numbers come from one sim, so only the peak bisection above
  // parallelizes; the measured run itself is a single spec.
  SimResult r;
  runner.run_all({{"sec55_overhead", [&sc, &cfg, peak, &r](obs::RunContext& ctx) {
                     ColocationSim sim(cfg, &ctx);
                     train_if_mtat(sim, sc.train_epochs, peak);
                     const LoadPattern pattern = LoadPattern::figure7(peak * 1000.0);
                     sim.run(pattern, pattern.total_length());
                     r = sim.result();
                   }}},
                 root);

  // Our partitioning interval is time-compressed x60 (DESIGN.md §5): one
  // decision per simulated second stands for one per real minute, so the
  // CPU fraction at paper cadence is wall-us-per-decision / 60 s.
  const double ppm_core_fraction = r.policy_wall_us_per_interval / 60e6;
  const double mig_gbps = r.migration_bytes_per_sec / (1024.0 * 1024.0 * 1024.0);
  const double mig_cap_gbps = cfg.migration_bandwidth / (1024.0 * 1024.0 * 1024.0);

  CsvWriter csv("sec55_overhead.csv",
                {"ppm_us_per_interval", "ppm_core_pct_at_60s_interval",
                 "ppe_migration_gbps", "migration_cap_gbps", "pages_moved_per_sec"});
  csv.row({r.policy_wall_us_per_interval, 100.0 * ppm_core_fraction, mig_gbps, mig_cap_gbps,
           r.migration_bytes_per_sec / static_cast<double>(kPageSize)});

  std::printf("PP-M decision cost:    %8.0f us per partitioning interval\n",
              r.policy_wall_us_per_interval);
  std::printf("  at paper cadence:    %8.4f %% of one core  (paper: < 7%%)\n",
              100.0 * ppm_core_fraction);
  std::printf("PP-E migration:        %8.3f GB/s of %.1f GB/s budget  (paper: ~4 GB/s of "
              "25.6 GB/s)\n",
              mig_gbps, mig_cap_gbps);
  std::printf("LC P99 over the run:   %8.2f ms  (violations %.1f%%)\n", r.lc_p99_ms,
              100.0 * r.slo_violation_rate);
  return 0;
}
