// Figure 8: maximum load of each LC workload (co-located with the four BE
// workloads) sustained without SLO violations, under MTAT, MEMTIS, TPP and
// SMEM_ALL, normalized to FMEM_ALL.
//
// Expected shape (paper §5.2): MTAT within ~1% of FMEM_ALL for every LC
// workload; MEMTIS ~0.85, TPP ~0.70 and at or below SMEM_ALL (geomean).
#include <cmath>

#include "bench/harness.h"
#include "common/csv.h"

using namespace mtat;
using namespace mtat::bench;

namespace {

/// Max sustainable load for one (LC, policy) pair: bisection over constant
/// loads; each probe runs on a fresh co-location (placement history from a
/// hotter probe must not leak into a cooler one). The MTAT agent is trained
/// once and shared across probes, which makes the predicate *impure* (each
/// probe advances the agent), so the bisection must stay on the serial
/// experiments::find_max_load overload — every probe sim still gets an
/// observability context of its own (carrying `parent`'s fault plan; its
/// trace is not kept) so policy runs can execute on concurrent runner
/// workers.
double measure_max_load(const Scale& sc, const LCConfig& lc, PolicyKind policy,
                        SacAgent* agent, const obs::RunContext& parent) {
  const auto sustainable = [&](double krps) {
    SimConfig cfg = make_sim_config(sc, lc, policy);
    cfg.shared_agent = agent;
    obs::RunContext ctx;
    ctx.inherit_faults(parent);
    ColocationSim sim(cfg, &ctx);
    return experiments::probe_slo_sustainable(sim, krps, /*warm=*/seconds(25),
                                              sc.measure_window);
  };
  return experiments::find_max_load(sustainable, 0.2 * lc.max_load_krps,
                                    1.3 * lc.max_load_krps, 6);
}

}  // namespace

int main() {
  const Scale sc = scale_from_env();
  RootContext root = banner("fig8_max_load", "Figure 8");
  experiments::ParallelRunner runner = make_runner();
  CsvWriter csv("fig8_max_load.csv", {"lc", "policy", "max_krps", "normalized_to_fmem_all"});
  const std::vector<PolicyKind> policies = {PolicyKind::kMtatFull, PolicyKind::kMemtis,
                                            PolicyKind::kTpp, PolicyKind::kSmemAll};
  std::printf("%-10s %12s", "workload", "FMEM_ALL");
  for (PolicyKind p : policies) std::printf(" %12s", policy_name(p));
  std::printf("   (normalized)\n");

  std::vector<double> geomean(policies.size(), 1.0);
  int n_lc = 0;
  for (const LCConfig& lc : scaled_lc_configs(sc)) {
    // FMEM_ALL baseline: pure predicate (no shared agent), so its bisection
    // probes fan across the runner.
    const double base = experiments::find_max_load(
        [&](double krps, obs::RunContext& ctx) {
          SimConfig cfg = make_sim_config(sc, lc, PolicyKind::kFmemAll);
          ColocationSim sim(cfg, &ctx);
          return experiments::probe_slo_sustainable(sim, krps, /*warm=*/seconds(25),
                                                    sc.measure_window);
        },
        0.2 * lc.max_load_krps, 1.3 * lc.max_load_krps, 6, runner, root);
    csv.row({lc.name, "fmem_all"}, {base, 1.0});

    // Each policy column is independent (own agent, own training, own serial
    // bisection) — one runner spec per policy.
    std::vector<double> max_krps(policies.size(), 0.0);
    std::vector<experiments::RunSpec> specs;
    specs.reserve(policies.size());
    for (std::size_t i = 0; i < policies.size(); ++i) {
      specs.push_back({std::string(lc.name) + "/" + policy_name(policies[i]),
                       [&sc, &lc, &policies, base, &max_krps, i](obs::RunContext& ctx) {
                         std::unique_ptr<SacAgent> agent;
                         if (is_mtat(policies[i])) {
                           agent = std::make_unique<SacAgent>(SacConfig{});
                           SimConfig cfg = make_sim_config(sc, lc, policies[i]);
                           cfg.shared_agent = agent.get();
                           ColocationSim trainer(cfg, &ctx);
                           train_if_mtat(trainer, sc.train_epochs, base);
                         }
                         max_krps[i] = measure_max_load(sc, lc, policies[i], agent.get(), ctx);
                       }});
    }
    runner.run_all(specs, root);

    std::printf("%-10s %9.2fK  ", lc.name.c_str(), base);
    for (std::size_t i = 0; i < policies.size(); ++i) {
      const double norm = max_krps[i] / base;
      geomean[i] *= norm;
      csv.row({lc.name, policy_name(policies[i])}, {max_krps[i], norm});
      std::printf(" %11.3f ", norm);
    }
    std::printf("\n");
    ++n_lc;
  }
  std::printf("%-10s %12s", "geomean", "1.000");
  for (std::size_t i = 0; i < policies.size(); ++i)
    std::printf(" %11.3f ", std::pow(geomean[i], 1.0 / n_lc));
  std::printf("\n\npaper (geomean, normalized): MTAT ~0.99, MEMTIS ~0.85, TPP ~0.70, "
              "SMEM_ALL between TPP and MEMTIS\n");
  return 0;
}
