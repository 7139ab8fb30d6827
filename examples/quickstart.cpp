// Quickstart: the smallest complete MTAT setup.
//
// Builds a tiered memory (fast DRAM tier + slow CXL-like tier), co-locates a
// Redis-like latency-critical workload with two best-effort graph workloads,
// puts MTAT (Full) in charge of the fast tier, trains its RL partitioner on
// one pass of the dynamic load, and then measures a second pass: the LC P99
// must stay under the SLO while the BE workloads share the leftover FMem.
//
//   ./quickstart
#include <cstdio>

#include "sim/colocation_sim.h"
#include "workloads/be/be_suite.h"

using namespace mtat;

int main() {
  // 1. Describe the platform: 128 MiB of FMem (73 ns) over 2 GiB of SMem
  //    (202 ns), with 4 GB/s of page-migration bandwidth. These are the
  //    DESIGN.md §5 scaled defaults; scale them up freely.
  SimConfig cfg;
  cfg.fmem = Bytes{128} * 1024 * 1024;
  cfg.smem = Bytes{2} * 1024 * 1024 * 1024;

  // 2. The latency-critical tenant: a Redis-like store sized slightly larger
  //    than FMem (Table 1's oversubscription), serving uniform GETs under a
  //    20 ms P99 SLO.
  cfg.lc = redis_config();
  cfg.lc.n_records = 130'000;  // ~133 MiB of records

  // 3. Two best-effort tenants: SSSP and PageRank, their page-access profiles
  //    extracted from real kernel runs over simulated memory.
  cfg.be = be_suite(BEScale::kTest, Bytes{140} * 1024 * 1024, /*cores=*/4, /*n=*/2);

  // 4. The policy under test: MTAT (Full) — RL-sized LC reservation plus a
  //    simulated-annealing fairness split of the rest.
  cfg.policy = PolicyKind::kMtatFull;

  // 5. The run's observability context: the metrics registry and trace
  //    recorder the sim and its components record into.
  obs::RunContext ctx;
  ColocationSim sim(cfg, &ctx);
  std::printf("platform: FMem %llu pages, SMem %llu pages, LC RSS %llu pages\n",
              (unsigned long long)sim.mem().capacity(kFastestTier),
              (unsigned long long)sim.mem().capacity(kFastestTier + 1),
              (unsigned long long)sim.lc().space().num_pages());

  // 6. Drive the Figure-7 load trapezoid: one pass to train the RL agent,
  //    one measured pass.
  const LoadPattern load = LoadPattern::figure7(cfg.lc.max_load_krps * 1000.0);
  for (int epoch = 0; epoch < 3; ++epoch) sim.run(load, load.total_length(), false);
  sim.reset_stats();
  sim.run(load, load.total_length());

  // 7. Read the results.
  const SimResult r = sim.result();
  std::printf("\nLC  : P99 %.2f ms (SLO %.0f ms), violations %.2f%%, %llu requests\n",
              r.lc_p99_ms, static_cast<double>(cfg.lc.slo) / 1e6,
              100.0 * r.slo_violation_rate, (unsigned long long)r.lc_completed);
  for (std::size_t i = 0; i < sim.be_count(); ++i)
    std::printf("BE %s: %.3e iterations/s, normalized perf %.3f\n",
                sim.be(i).config().name.c_str(), r.be_rate[i], r.be_np[i]);
  std::printf("fairness (min NP) %.3f, BE fleet throughput %.3e/s\n", r.fairness,
              r.be_total_throughput);
  std::printf("\nallocation trace (every 30 s): t -> LC share of FMem\n  ");
  for (std::size_t i = 0; i < r.series.size(); i += 30)
    std::printf("%.0fs:%.2f  ", r.series[i].t_sec, r.series[i].lc_fmem_share);
  std::printf("\n");
  return r.slo_violation_rate < 0.05 ? 0 : 1;
}
