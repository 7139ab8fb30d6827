// Extension: fault-tolerance sweep (DESIGN.md §12, beyond the paper's
// evaluation). Drives the standard Redis co-location at a fixed mid load
// while a seed-deterministic fault storm (faults::FaultPlan::storm) batters
// the platform: telemetry sample loss and total blackouts, migration aborts
// up to 100%-failure bursts, migration-bandwidth collapses, SMem latency
// spikes, and corrupted RL actions. Sweeps storm intensity x policy and
// reports LC tail latency, SLO compliance, and the fault/recovery counters.
//
// Expected shape: at intensity 0 every policy matches its ext-free numbers
// bit for bit (no injector, no watchdog). As intensity rises, MTAT's
// degradation ladder (RL -> waterline heuristic -> static safe placement)
// keeps it running — mode transitions appear, violations rise gracefully —
// while the baselines have no fallback and eat the storm as raw latency.
//
// A second leg repeats a bounded grid on a three-tier DRAM/CXL/NVM topology,
// so the storm's migration aborts and rollbacks exercise the multi-link
// cascade paths (per-link counters, partial-chain rollback), not just the
// single FMem<->SMem link. Skipped when MTAT_TOPOLOGY overrides the tier
// vector — the env then owns the topology for the whole grid.
#include "bench/harness.h"
#include "common/csv.h"
#include "obs/names.h"

using namespace mtat;
using namespace mtat::bench;

namespace {

double counter_value(const obs::RunContext& ctx, const char* name) {
  const obs::Counter* c = ctx.metrics().find_counter(name);
  return c != nullptr ? c->value() : 0.0;
}

constexpr double kGiB = 1024.0 * 1024 * 1024;

/// The same DRAM/CXL/NVM shape as ext_ntier_topologies: DRAM keeps the
/// preset fast tier, CXL a quarter of the slow tier, NVM the rest, with the
/// NVM link at half migration bandwidth (the link most likely to be
/// mid-transfer when an abort burst lands).
std::vector<TierSpec> three_tier(const Scale& sc) {
  return {{"dram", bytes_to_pages(sc.fmem), 73, 4.0 * kGiB},
          {"cxl", bytes_to_pages(sc.smem / 4), 202, 4.0 * kGiB},
          {"nvm", bytes_to_pages(sc.smem), 450, 2.0 * kGiB}};
}

}  // namespace

int main() {
  const Scale sc = scale_from_env();
  RootContext root =
      banner("ext_fault_tolerance", "extension: fault-injection resilience (DESIGN.md §12)");
  experiments::ParallelRunner runner = make_runner();
  const LCConfig redis = scaled_lc_config(redis_config(), sc);
  const double peak = fmem_all_peak_krps(sc, redis, runner, root);
  std::printf("load fixed at 50%% of FMEM_ALL measured max = %.2f KRPS\n", peak);
  CsvWriter csv("ext_fault_tolerance.csv",
                {"policy", "topology", "intensity", "p99_ms", "slo_violation_pct",
                 "migration_failures", "migration_retries", "migration_rollbacks",
                 "samples_dropped", "mode_transitions"});

  const std::vector<double> intensities = {0.0, 0.5, 1.0};
  const std::vector<PolicyKind> policies = {PolicyKind::kMtatFull, PolicyKind::kMemtis,
                                            PolicyKind::kTpp};

  // Every (policy, topology, intensity) cell is independent — own agent, own
  // training, own sim, own fault plan — so the grid fans across the runner;
  // rows are reported in spec order regardless of completion order.
  struct Cell {
    PolicyKind policy = PolicyKind::kMtatFull;
    int topology = 0;  // index into the legs table
    double intensity = 0;
    double p99_ms = 0, viol_pct = 0;
    double failures = 0, retries = 0, rollbacks = 0, dropped = 0, transitions = 0;
  };
  struct Leg {
    const char* label;
    std::vector<TierSpec> tiers;  // empty = the preset (or MTAT_TOPOLOGY)
  };
  const bool env_topology = topology_from_env().has_value();
  std::vector<Leg> legs = {{env_topology ? "env" : "2tier", {}}};
  if (!env_topology) legs.push_back({"3tier_dram_cxl_nvm", three_tier(sc)});
  std::vector<Cell> cells;
  for (PolicyKind policy : policies)
    for (double intensity : intensities) {
      Cell cell;
      cell.policy = policy;
      cell.intensity = intensity;
      cells.push_back(cell);
    }
  // The multi-link leg is a bounded grid: storm endpoints only. What it
  // checks is that abort/rollback recovery survives the tier cascade, not
  // the full intensity response curve the two-tier leg already charts.
  if (legs.size() > 1)
    for (PolicyKind policy : policies)
      for (double intensity : {0.0, 1.0}) {
        Cell cell;
        cell.policy = policy;
        cell.topology = 1;
        cell.intensity = intensity;
        cells.push_back(cell);
      }

  std::vector<experiments::RunSpec> specs;
  specs.reserve(cells.size());
  for (Cell& cell : cells) {
    specs.push_back({std::string(policy_name(cell.policy)) + "@" + legs[cell.topology].label +
                         ":storm:" + std::to_string(cell.intensity).substr(0, 3),
                     [&sc, &redis, peak, &legs, &cell](obs::RunContext& ctx) {
                       // The injector must exist before any component caches
                       // its run context; intensity 0 installs none at all so
                       // the clean column keeps the exact no-faults codepath
                       // (DESIGN.md §12: presence of an injector is what arms
                       // the watchdog).
                       if (cell.intensity > 0)
                         ctx.install_faults(faults::FaultPlan::storm(cell.intensity));
                       SimConfig cfg = make_sim_config(sc, redis, cell.policy);
                       if (!legs[cell.topology].tiers.empty())
                         cfg.tiers = legs[cell.topology].tiers;
                       std::unique_ptr<SacAgent> agent;
                       if (is_mtat(cell.policy)) {
                         agent = std::make_unique<SacAgent>(SacConfig{});
                         cfg.shared_agent = agent.get();
                       }
                       ColocationSim sim(cfg, &ctx);
                       train_if_mtat(sim, sc.train_epochs, peak);
                       const LoadPattern pattern = LoadPattern::constant(0.5 * peak * 1000.0);
                       sim.run(pattern, seconds(10), /*measure=*/false);  // settle
                       sim.reset_stats();
                       sim.run(pattern, sc.measure_window);
                       const SimResult r = sim.result();
                       cell.p99_ms = r.lc_p99_ms;
                       cell.viol_pct = 100.0 * r.slo_violation_rate;
                       cell.failures = counter_value(ctx, obs::names::kFaultMigrationFailures);
                       cell.retries = counter_value(ctx, obs::names::kMigrationRetries);
                       cell.rollbacks = counter_value(ctx, obs::names::kFaultMigrationRollbacks);
                       cell.dropped = counter_value(ctx, obs::names::kFaultSamplesDropped);
                       cell.transitions = counter_value(ctx, obs::names::kMtatModeTransitions);
                     }});
  }
  runner.run_all(specs, root);

  std::printf("%-13s %-18s %9s %9s %7s %9s %8s %9s %9s %11s\n", "policy", "topology",
              "intensity", "p99_ms", "viol%", "mig_fail", "retries", "rollbacks", "dropped",
              "transitions");
  for (const Cell& cell : cells) {
    csv.row(std::vector<std::string>{policy_name(cell.policy), legs[cell.topology].label},
            {cell.intensity, cell.p99_ms, cell.viol_pct, cell.failures, cell.retries,
             cell.rollbacks, cell.dropped, cell.transitions});
    std::printf("%-13s %-18s %9.2f %9.3f %6.1f%% %9.0f %8.0f %9.0f %9.0f %11.0f\n",
                policy_name(cell.policy), legs[cell.topology].label, cell.intensity,
                cell.p99_ms, cell.viol_pct, cell.failures, cell.retries, cell.rollbacks,
                cell.dropped, cell.transitions);
  }
  std::printf(
      "\nexpected: intensity 0 matches the fault-free suite; under the storm MTAT degrades "
      "through its ladder (transitions > 0) instead of crashing\n");
  return 0;
}
