// Extension: the RL partitioner's learning curve — SLO violations and mean
// reward on the measured pass as a function of training epochs. Shows the
// division of labor inside PP-M: the SLO guard bounds the damage from epoch
// zero, and the learned policy then takes over the anticipation (violations
// and needless reservation both fall as training proceeds).
#include "bench/harness.h"
#include "common/csv.h"
#include "core/mtat_policy.h"

using namespace mtat;
using namespace mtat::bench;

int main() {
  const Scale sc = scale_from_env();
  RootContext root =
      banner("ext_rl_learning", "extension (PP-M learning curve; Algorithm 1 in training)");
  experiments::ParallelRunner runner = make_runner();
  const LCConfig redis = scaled_lc_config(redis_config(), sc);
  const double peak = fmem_all_peak_krps(sc, redis, runner, root);
  CsvWriter csv("ext_rl_learning.csv",
                {"epochs", "viol_pct", "p99_ms", "mean_reward", "mean_lc_share",
                 "be_tput"});

  // Every epoch count is an independent training + measurement run; the
  // derived statistics need the live sim, so they are computed inside the
  // spec and only plain numbers cross back.
  const std::vector<int> epoch_counts = {0, 1, 2, 4, 8};
  struct Outcome {
    SimResult r;
    double mean_reward = 0, mean_share = 0;
  };
  std::vector<Outcome> outcomes(epoch_counts.size());
  std::vector<experiments::RunSpec> specs;
  for (std::size_t i = 0; i < epoch_counts.size(); ++i)
    specs.push_back({"epochs=" + std::to_string(epoch_counts[i]),
                     [&sc, &redis, peak, &epoch_counts, &outcomes, i](obs::RunContext& ctx) {
                       SimConfig cfg = make_sim_config(sc, redis, PolicyKind::kMtatFull);
                       ColocationSim sim(cfg, &ctx);
                       train_if_mtat(sim, epoch_counts[i], peak);
                       const LoadPattern pattern = LoadPattern::figure7(peak * 1000.0);
                       sim.run(pattern, pattern.total_length());
                       Outcome& o = outcomes[i];
                       o.r = sim.result();
                       auto& mtat = dynamic_cast<MtatPolicy&>(sim.policy());
                       const auto& rewards = mtat.ppm().reward_history();
                       // Mean reward over the measured pass only (the
                       // trailing 240 intervals).
                       const std::size_t n = std::min<std::size_t>(rewards.size(), 240);
                       for (std::size_t k = rewards.size() - n; k < rewards.size(); ++k)
                         o.mean_reward += rewards[k] / static_cast<double>(n);
                       for (const auto& tp : o.r.series) o.mean_share += tp.lc_fmem_share;
                       o.mean_share /= static_cast<double>(o.r.series.size());
                     }});
  runner.run_all(specs, root);

  std::printf("%7s %9s %10s %12s %14s %13s\n", "epochs", "viol%", "P99(ms)", "mean reward",
              "mean LC share", "BE tput");
  for (std::size_t i = 0; i < epoch_counts.size(); ++i) {
    const Outcome& o = outcomes[i];
    std::printf("%7d %8.1f%% %10.2f %12.3f %14.3f %13.3e\n", epoch_counts[i],
                100.0 * o.r.slo_violation_rate, o.r.lc_p99_ms, o.mean_reward, o.mean_share,
                o.r.be_total_throughput);
    csv.row({static_cast<double>(epoch_counts[i]), 100.0 * o.r.slo_violation_rate,
             o.r.lc_p99_ms, o.mean_reward, o.mean_share, o.r.be_total_throughput});
  }
  std::printf("\nexpected: epoch 0 leans on the guard (compliant but reactive, larger\n"
              "reservations); training raises mean reward by shedding FMem the SLO\n"
              "doesn't need and pre-positioning for the surges it does.\n");
  return 0;
}
