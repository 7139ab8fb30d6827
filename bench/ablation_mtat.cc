// Ablation of MTAT's design choices (DESIGN.md §6), on the Redis + 4 BE
// dynamic-load experiment:
//   full          — MTAT (Full) as evaluated everywhere else
//   no_guard      — RL only, without the SLO guard's expansion override
//   even_split    — even BE split instead of the SA fairness search
//   no_lc_first   — Algorithm 3 without LC-priority slice ordering
//   no_aging      — histogram aging disabled in PP-E
#include "bench/harness.h"
#include "common/csv.h"

using namespace mtat;
using namespace mtat::bench;

int main() {
  const Scale sc = scale_from_env();
  RootContext root = banner("ablation_mtat", "DESIGN.md §6 (ablations of §3's design choices)");
  experiments::ParallelRunner runner = make_runner();
  const LCConfig redis = scaled_lc_config(redis_config(), sc);
  const double peak = fmem_all_peak_krps(sc, redis, runner, root);

  struct Variant {
    const char* name;
    MtatPolicy::Options opt;
  };
  std::vector<Variant> variants;
  variants.push_back({"full", {}});
  {
    MtatPolicy::Options o;
    o.ppm.slo_guard = false;
    variants.push_back({"no_guard", o});
  }
  {
    MtatPolicy::Options o;
    o.ppm.be_even_split = true;
    variants.push_back({"even_split", o});
  }
  {
    MtatPolicy::Options o;
    o.ppe.lc_first = false;
    variants.push_back({"no_lc_first", o});
  }
  {
    MtatPolicy::Options o;
    o.ppe.enable_aging = false;
    variants.push_back({"no_aging", o});
  }

  CsvWriter csv("ablation_mtat.csv",
                {"variant", "p99_ms", "slo_violation_pct", "fairness", "be_throughput"});

  // One independent run per ablated variant — fan across the runner, report
  // in the variant list's order.
  std::vector<SimResult> results(variants.size());
  std::vector<experiments::RunSpec> specs;
  specs.reserve(variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    specs.push_back({variants[i].name, [&sc, &redis, peak, &variants, &results,
                                        i](obs::RunContext& ctx) {
                       SimConfig cfg = make_sim_config(sc, redis, PolicyKind::kMtatFull);
                       cfg.mtat = variants[i].opt;
                       ColocationSim sim(cfg, &ctx);
                       train_if_mtat(sim, sc.train_epochs, peak);
                       const LoadPattern pattern = LoadPattern::figure7(peak * 1000.0);
                       sim.run(pattern, pattern.total_length());
                       results[i] = sim.result();
                     }});
  }
  runner.run_all(specs, root);

  std::printf("%-12s %10s %9s %10s %13s\n", "variant", "P99(ms)", "viol%", "fairness",
              "BE tput");
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const SimResult& r = results[i];
    csv.row(variants[i].name, {r.lc_p99_ms, 100.0 * r.slo_violation_rate, r.fairness,
                               r.be_total_throughput});
    std::printf("%-12s %10.2f %8.1f%% %10.3f %13.3e\n", variants[i].name, r.lc_p99_ms,
                100.0 * r.slo_violation_rate, r.fairness, r.be_total_throughput);
  }
  std::printf("\nexpected: no_guard raises violations (slow surge response); even_split\n"
              "lowers fairness; no_lc_first delays LC expansion during repartitioning;\n"
              "no_aging lets stale hotness misplace pages after load shifts.\n");
  return 0;
}
