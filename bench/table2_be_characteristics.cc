// Table 2: BE benchmark characteristics — RSS plus description, extended with
// the extracted profile statistics that drive the simulation (misses per
// iteration, access concentration, standalone throughput sensitivity).
#include "bench/harness.h"
#include "common/csv.h"

using namespace mtat;
using namespace mtat::bench;

int main() {
  const Scale sc = scale_from_env();
  RootContext root = banner("table2_be_characteristics", "Table 2");
  CsvWriter csv("table2_be_characteristics.csv",
                {"workload", "rss_gib", "acc_per_iter", "mlp", "hot10pct_mass",
                 "np_at_zero_fmem"});
  std::printf("%-9s %9s %12s %5s %13s %12s  %s\n", "workload", "RSS(GiB)", "acc/iter", "mlp",
              "hot10%mass", "NP@0 FMem", "description");
  TieredMemory::Config mc =
      TieredMemory::Config::two_tier(bytes_to_pages(sc.fmem), bytes_to_pages(sc.smem));
  TieredMemory mem(mc);
  WorkloadId id = 0;
  for (const BEConfig& cfg : be_suite(sc.be_scale, sc.be_rss, 4, 4)) {
    BEWorkload be(mem, id++, cfg, kTierOnly(kFastestTier + 1), nullptr, 1);
    const double rss_gib = static_cast<double>(cfg.rss) / (1024.0 * 1024.0 * 1024.0);
    // Concentration: share of accesses captured by the hottest 10% of pages.
    const auto prefix = cfg.profile.best_placement_prefix();
    const double hot10 = prefix[prefix.size() / 10];
    const double np0 = be.rate_at_pages(0) / be.perf_full();
    std::printf("%-9s %9.3f %12.2f %5.1f %12.1f%% %12.3f  %s\n", cfg.name.c_str(), rss_gib,
                cfg.profile.accesses_per_iteration, cfg.mlp, hot10 * 100.0, np0,
                cfg.description.c_str());
    csv.row(cfg.name, {rss_gib, cfg.profile.accesses_per_iteration, cfg.mlp, hot10, np0});
  }
  std::printf("\npaper RSS (hardware scale): sssp 35.5GB, bfs 35.2GB, pr 36.0GB, "
              "xsbench 31.7GB\n");
  return 0;
}
