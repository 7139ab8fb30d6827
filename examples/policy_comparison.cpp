// Policy comparison on one co-location: why frequency-based tiering fails the
// LC tenant and what each alternative trades away.
//
// Runs MongoDB + {SSSP, BFS, PR, XSBench} under every policy on the same
// dynamic load and prints the LC/BE scorecard — a compact version of the
// paper's Figures 5-6 for a single LC workload.
//
//   ./policy_comparison
#include <cstdio>

#include "sim/colocation_sim.h"
#include "workloads/be/be_suite.h"

using namespace mtat;

int main() {
  SimConfig base;
  base.fmem = Bytes{128} * 1024 * 1024;
  base.smem = Bytes{2} * 1024 * 1024 * 1024;
  base.lc = mongodb_config();
  base.lc.n_records = 130'000;
  base.be = be_suite(BEScale::kTest, Bytes{140} * 1024 * 1024, 4, 4);

  std::printf("%-13s %10s %8s %10s %12s %9s\n", "policy", "LC P99ms", "viol%", "fairness",
              "BE tput", "mig MB/s");
  for (PolicyKind policy :
       {PolicyKind::kMtatFull, PolicyKind::kMtatLcOnly, PolicyKind::kMemtis,
        PolicyKind::kTpp, PolicyKind::kFmemAll, PolicyKind::kSmemAll}) {
    SimConfig cfg = base;
    cfg.policy = policy;
    obs::RunContext ctx;  // one context per run: its metrics stay its own
    ColocationSim sim(cfg, &ctx);
    const LoadPattern load = LoadPattern::figure7(cfg.lc.max_load_krps * 1000.0);
    if (policy == PolicyKind::kMtatFull || policy == PolicyKind::kMtatLcOnly) {
      for (int e = 0; e < 3; ++e) sim.run(load, load.total_length(), false);
      sim.reset_stats();
    }
    sim.run(load, load.total_length());
    const SimResult r = sim.result();
    std::printf("%-13s %10.2f %7.1f%% %10.3f %12.3e %9.1f\n", policy_name(policy),
                r.lc_p99_ms, 100.0 * r.slo_violation_rate, r.fairness,
                r.be_total_throughput, r.migration_bytes_per_sec / 1e6);
  }
  std::printf("\nreading guide: MTAT keeps violations near zero at some BE throughput\n"
              "cost; MEMTIS/TPP maximize BE throughput but blow the LC SLO through the\n"
              "high-load phase, like SMEM_ALL; FMEM_ALL protects LC but starves BE.\n");
  return 0;
}
