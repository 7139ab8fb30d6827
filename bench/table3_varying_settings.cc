// Table 3: MTAT (Full) and MTAT (LC Only) across varying (x, y, z) settings —
// x cores for the LC workload (Memcached), y cores shared by z BE workloads.
// Reports LC max load normalized to FMEM_ALL and BE fairness/throughput at
// 20/50/80% of that max normalized to MEMTIS.
//
// Expected shape (paper §5.4): LC max load 0.98-0.99 everywhere; BE
// throughput ~0.85-1.0 of MEMTIS at 20/50% load, dropping to ~0.5-0.75 at
// 80%; MTAT (Full) fairness >= MEMTIS at every setting, growing with load.
#include "bench/harness.h"
#include "common/csv.h"

using namespace mtat;
using namespace mtat::bench;

namespace {

struct Setting {
  int lc_cores, be_cores_total, n_be;
};

struct LevelMetrics {
  double fairness = 0, tput = 0;
};

LevelMetrics measure_at_level(const Scale& sc, const LCConfig& lc, PolicyKind policy,
                              int n_be, int be_cores, double load_krps, SacAgent* agent,
                              obs::RunContext& ctx) {
  SimConfig cfg = make_sim_config(sc, lc, policy, n_be, be_cores);
  cfg.shared_agent = agent;
  ColocationSim sim(cfg, &ctx);
  const LoadPattern pattern = LoadPattern::constant(load_krps * 1000.0);
  sim.run(pattern, seconds(12), /*measure=*/false);
  sim.reset_stats();
  sim.run(pattern, seconds(20));
  const SimResult r = sim.result();
  return {r.fairness, r.be_total_throughput};
}

}  // namespace

int main() {
  const Scale sc = scale_from_env();
  RootContext root = banner("table3_varying_settings", "Table 3");
  experiments::ParallelRunner runner = make_runner();
  CsvWriter csv("table3_varying_settings.csv",
                {"setting", "variant", "lc_max_norm", "fair20", "tput20", "fair50", "tput50",
                 "fair80", "tput80"});
  const std::vector<Setting> settings = {{4, 20, 2},  {4, 20, 4}, {10, 14, 2},
                                         {10, 14, 4}, {16, 8, 2}, {16, 8, 4}};
  std::printf("%-11s %-13s %8s | %6s %6s | %6s %6s | %6s %6s\n", "setting", "variant",
              "LC max", "f20", "t20", "f50", "t50", "f80", "t80");
  for (const Setting& st : settings) {
    // Memcached with the setting's core count; max load scales with cores.
    LCConfig lc = scaled_lc_config(memcached_config(), sc);
    lc.threads = st.lc_cores;
    lc.max_load_krps = memcached_config().max_load_krps * st.lc_cores / 8.0;
    const int be_cores = st.be_cores_total / st.n_be;

    // Serial bisection for a shared-agent variant: every probe advances the
    // agent, so probe order matters (the impure case the parallel
    // find_max_load overload documents); each probe sim still gets an
    // observability context of its own (carrying the spec's fault plan; its
    // trace is not kept) so the variant specs below can run concurrently.
    const auto max_for_serial = [&](PolicyKind policy, SacAgent* agent,
                                    const obs::RunContext& parent) {
      return experiments::find_max_load(
          [&](double krps) {
            SimConfig cfg = make_sim_config(sc, lc, policy, st.n_be, be_cores);
            cfg.shared_agent = agent;
            obs::RunContext ctx;
            ctx.inherit_faults(parent);
            ColocationSim sim(cfg, &ctx);
            return experiments::probe_slo_sustainable(sim, krps, seconds(25), seconds(20));
          },
          0.2 * lc.max_load_krps, 1.3 * lc.max_load_krps, 5);
    };

    // FMEM_ALL max load (normalization base): pure probe, parallel bisection.
    const double base_max = experiments::find_max_load(
        [&](double krps, obs::RunContext& ctx) {
          SimConfig cfg = make_sim_config(sc, lc, PolicyKind::kFmemAll, st.n_be, be_cores);
          ColocationSim sim(cfg, &ctx);
          return experiments::probe_slo_sustainable(sim, krps, seconds(25), seconds(20));
        },
        0.2 * lc.max_load_krps, 1.3 * lc.max_load_krps, 5, runner, root);

    // MEMTIS metrics at each level (normalization base for BE columns) —
    // independent runs, one spec each.
    const double levels[3] = {0.2, 0.5, 0.8};
    LevelMetrics memtis[3];
    {
      std::vector<experiments::RunSpec> specs;
      for (int i = 0; i < 3; ++i)
        specs.push_back({"memtis@level" + std::to_string(i),
                         [&, i](obs::RunContext& ctx) {
                           memtis[i] = measure_at_level(sc, lc, PolicyKind::kMemtis,
                                                        st.n_be, be_cores,
                                                        levels[i] * base_max, nullptr, ctx);
                         }});
      runner.run_all(specs, root);
    }

    // The two MTAT variants are independent of each other (own agent, own
    // training) but serial inside: the bisection and the per-level runs all
    // share the variant's agent.
    struct VariantRow {
      double lc_max = 0;
      LevelMetrics m[3];
    };
    const PolicyKind variants[2] = {PolicyKind::kMtatFull, PolicyKind::kMtatLcOnly};
    VariantRow rows[2];
    {
      std::vector<experiments::RunSpec> specs;
      for (int v = 0; v < 2; ++v)
        specs.push_back({policy_name(variants[v]), [&, v](obs::RunContext& ctx) {
                           const PolicyKind variant = variants[v];
                           SacAgent agent{SacConfig{}};
                           {
                             SimConfig cfg =
                                 make_sim_config(sc, lc, variant, st.n_be, be_cores);
                             cfg.shared_agent = &agent;
                             ColocationSim trainer(cfg, &ctx);
                             train_if_mtat(trainer, sc.train_epochs, base_max);
                           }
                           rows[v].lc_max = max_for_serial(variant, &agent, ctx) / base_max;
                           for (int i = 0; i < 3; ++i) {
                             obs::RunContext level_ctx;
                             level_ctx.inherit_faults(ctx);
                             rows[v].m[i] =
                                 measure_at_level(sc, lc, variant, st.n_be, be_cores,
                                                  levels[i] * base_max, &agent, level_ctx);
                           }
                         }});
      runner.run_all(specs, root);
    }

    for (int v = 0; v < 2; ++v) {
      std::vector<double> row = {rows[v].lc_max};
      char label[32];
      std::snprintf(label, sizeof label, "(%d;%d;%d)", st.lc_cores, st.be_cores_total,
                    st.n_be);
      std::printf("%-11s %-13s %8.3f |", label, policy_name(variants[v]), rows[v].lc_max);
      for (int i = 0; i < 3; ++i) {
        const double f = memtis[i].fairness > 0 ? rows[v].m[i].fairness / memtis[i].fairness
                                                : 0.0;
        const double t = memtis[i].tput > 0 ? rows[v].m[i].tput / memtis[i].tput : 0.0;
        row.push_back(f);
        row.push_back(t);
        std::printf(" %6.2f %6.2f |", f, t);
      }
      std::printf("\n");
      csv.row({label, policy_name(variants[v])}, row);
    }
  }
  std::printf("\npaper: LC max 0.98-0.99 across all settings; fairness ratios 1.0-1.8,\n"
              "throughput 0.5-1.0 falling with load level.\n");
  return 0;
}
