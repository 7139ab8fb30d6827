// Figure 2: Redis co-located with SSSP under MEMTIS-managed tiering. The
// offered load steps through the max throughputs achievable at FMem
// 0/25/50/75/100%; the plot shows (top) the load, (middle) P99 vs the SLO,
// (bottom) the fraction of Redis data resident in FMem.
//
// Expected reproduction of §2.2: SSSP's steady access stream promptly claims
// FMem (Redis residency collapses below 10%), and Redis's P99 blows through
// the SLO as soon as the load passes what its SMem-resident working set can
// serve — even though 25% of FMem would have sufficed.
#include "bench/harness.h"
#include "common/csv.h"

using namespace mtat;
using namespace mtat::bench;

int main() {
  const Scale sc = scale_from_env();
  RootContext root = banner("fig2_memtis_colocation", "Figure 2");
  experiments::ParallelRunner runner = make_runner();
  const LCConfig redis = scaled_lc_config(redis_config(), sc);

  // One sim, one spec: fig2 is a single time series, so the runner buys no
  // parallelism here — routing through it anyway keeps every bench on the
  // same RunContext/trace-merge path.
  SimResult r;
  runner.run_all({{"fig2_memtis_colocation", [&sc, &redis, &r](obs::RunContext& ctx) {
                     SimConfig cfg = make_sim_config(sc, redis, PolicyKind::kMemtis,
                                                     /*n_be=*/1);
                     ColocationSim sim(cfg, &ctx);

                     // Load staircase: the max sustainable throughput at each
                     // FMem level, estimated from the calibrated service-time
                     // interpolation S(f) = f*S_f + (1-f)*S_s, driven
                     // slightly below saturation.
                     const double s_f =
                         static_cast<double>(sim.lc().ideal_service_time(kFastestTier));
                     const double s_s =
                         static_cast<double>(sim.lc().ideal_service_time(kFastestTier + 1));
                     std::vector<double> fractions_of_max;
                     std::printf("load staircase (max tput at FMem level, KRPS):");
                     for (double f : {0.0, 0.25, 0.5, 0.75, 1.0}) {
                       const double sat = redis.threads * 1e9 / (f * s_f + (1.0 - f) * s_s);
                       fractions_of_max.push_back(0.97 * sat /
                                                  (redis.max_load_krps * 1000.0));
                       std::printf(" %.1f", 0.97 * sat / 1000.0);
                     }
                     std::printf("\n\n");
                     const LoadPattern pattern = LoadPattern::staircase(
                         redis.max_load_krps * 1000.0, fractions_of_max, seconds(40));

                     sim.run(pattern, pattern.total_length());
                     r = sim.result();
                   }}},
                 root);

  CsvWriter csv("fig2_memtis_colocation.csv",
                {"t_sec", "offered_krps", "p99_ms", "redis_fmem_ratio"});
  std::printf("%6s %12s %12s %18s\n", "t(s)", "load(KRPS)", "P99(ms)", "Redis FMem ratio");
  for (std::size_t i = 0; i < r.series.size(); ++i) {
    const auto& tp = r.series[i];
    csv.row({tp.t_sec, tp.offered_rps / 1000.0, tp.lc_p99_ms, tp.lc_fmem_ratio});
    if (i % 5 == 0)
      std::printf("%6.0f %12.2f %12.2f %18.3f\n", tp.t_sec, tp.offered_rps / 1000.0,
                  tp.lc_p99_ms, tp.lc_fmem_ratio);
  }
  std::printf("\nSLO = %.0f ms; overall violation rate %.1f%%; final Redis FMem ratio %.3f\n",
              static_cast<double>(redis.slo) / 1e6, 100.0 * r.slo_violation_rate,
              r.series.back().lc_fmem_ratio);
  return 0;
}
