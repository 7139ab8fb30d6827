// Extension: skewed LC request distributions (the paper drives its LC
// workloads with uniform requests; production KV traffic is zipfian).
//
// Under zipf, the LC workload has a genuinely hot core, which changes the
// game for every policy: frequency-based tiering can finally *see* part of
// the LC working set, and MTAT's PP-E refinement keeps the LC partition's
// hottest records resident so a smaller reservation satisfies the SLO.
#include "bench/harness.h"
#include "common/csv.h"

using namespace mtat;
using namespace mtat::bench;

int main() {
  const Scale sc = scale_from_env();
  RootContext root = banner("ext_zipf_lc", "extension (skewed LC requests; paper §5 uses uniform)");
  experiments::ParallelRunner runner = make_runner();
  CsvWriter csv("ext_zipf_lc.csv",
                {"dist", "policy", "p99_ms", "viol_pct", "mean_lc_share", "be_tput"});
  const std::vector<PolicyKind> policies = {PolicyKind::kMtatFull, PolicyKind::kMemtis,
                                            PolicyKind::kTpp};
  for (bool zipf : {false, true}) {
    LCConfig lc = scaled_lc_config(redis_config(), sc);
    if (zipf) lc.dist = RequestDist::kZipfian;
    const double peak = 0.9 * fmem_all_peak_krps(sc, lc, runner, root);
    std::printf("\n--- %s requests (pattern peak = 0.9x FMEM_ALL max = %.2f KRPS) ---\n",
                zipf ? "zipfian(0.99)" : "uniform", peak);

    struct Outcome {
      SimResult r;
      double mean_share = 0;
    };
    std::vector<Outcome> outcomes(policies.size());
    std::vector<experiments::RunSpec> specs;
    for (std::size_t i = 0; i < policies.size(); ++i)
      specs.push_back({policy_name(policies[i]),
                       [&sc, &lc, peak, &policies, &outcomes, i](obs::RunContext& ctx) {
                         SimConfig cfg = make_sim_config(sc, lc, policies[i]);
                         ColocationSim sim(cfg, &ctx);
                         train_if_mtat(sim, sc.train_epochs, peak);
                         const LoadPattern pattern = LoadPattern::figure7(peak * 1000.0);
                         sim.run(pattern, pattern.total_length());
                         Outcome& o = outcomes[i];
                         o.r = sim.result();
                         for (const auto& tp : o.r.series) o.mean_share += tp.lc_fmem_share;
                         o.mean_share /= static_cast<double>(o.r.series.size());
                       }});
    runner.run_all(specs, root);

    std::printf("%-13s %10s %9s %14s %13s\n", "policy", "P99(ms)", "viol%", "mean LC share",
                "BE tput");
    for (std::size_t i = 0; i < policies.size(); ++i) {
      const Outcome& o = outcomes[i];
      std::printf("%-13s %10.2f %8.1f%% %14.3f %13.3e\n", policy_name(policies[i]),
                  o.r.lc_p99_ms, 100.0 * o.r.slo_violation_rate, o.mean_share,
                  o.r.be_total_throughput);
      csv.row(std::vector<std::string>{zipf ? "zipf" : "uniform", policy_name(policies[i])},
              {o.r.lc_p99_ms, 100.0 * o.r.slo_violation_rate, o.mean_share,
               o.r.be_total_throughput});
    }
  }
  std::printf(
      "\nnotes: the pattern peaks at 0.9x of FMEM_ALL's max. At 1.0x the zipf case\n"
      "exposes a real telemetry limit of the compressed-time setup: FMEM_ALL's\n"
      "address-ordered placement keeps the zipf tail (~0.5%% of traffic) in SMem\n"
      "for free, while sampled hotness cannot resolve warm-vs-tail pages inside\n"
      "one compressed aging window, so MTAT's composition gives up a few percent\n"
      "of capacity — enough to ride the knee when driven exactly at FMEM_ALL's\n"
      "edge. The frequency-based baselines violate massively either way.\n");
  return 0;
}
