// Figure 1: tail latency of the four LC workloads as offered load grows, at
// static FMem allocations of 0/25/50/75/100% of the working set. The paper's
// observation — throughput (the knee position) degrades monotonically as
// FMem shrinks — must hold for every workload.
#include "bench/harness.h"
#include "common/csv.h"

using namespace mtat;
using namespace mtat::bench;

int main() {
  const Scale sc = scale_from_env();
  RootContext root = banner("fig1_lc_latency_curves", "Figure 1");
  experiments::ParallelRunner runner = make_runner();
  CsvWriter csv("fig1_lc_latency_curves.csv",
                {"workload", "fmem_pct", "offered_krps", "p99_ms", "achieved_krps"});
  const std::vector<double> fractions = {0.0, 0.25, 0.5, 0.75, 1.0};
  const std::vector<double> loads = {0.4, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1};
  for (const LCConfig& lc : scaled_lc_configs(sc)) {
    std::printf("\n--- %s (SLO %.0f ms) ---\n", lc.name.c_str(),
                static_cast<double>(lc.slo) / 1e6);
    std::printf("%-9s", "FMem");
    for (double l : loads) std::printf(" %8.1fk", l * lc.max_load_krps);
    std::printf("\n");
    for (double f : fractions) {
      const auto curve = experiments::lc_latency_curve(lc, f, loads, seconds(20), 99, &runner);
      std::printf("%7.0f%% ", f * 100);
      for (const auto& pt : curve) {
        if (pt.p99_ms < 9999)
          std::printf(" %8.2fms", pt.p99_ms);
        else
          std::printf(" %8.0fms", pt.p99_ms);
        csv.row(lc.name,
                {f * 100, pt.offered_krps, pt.p99_ms, pt.achieved_krps});
      }
      std::printf("\n");
    }
  }
  std::printf("\nexpected shape: P99 diverges at lower offered load as the FMem share\n"
              "shrinks (knee at ~%.0f%% of max with FMem 0%%), monotone in between.\n",
              100.0 * 0.78);
  return 0;
}
