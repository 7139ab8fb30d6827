// Table 1: LC benchmark characteristics — RSS, SLO, and max load.
//
// The paper's values are hardware-scale (RSS ~30-34 GB, loads up to 1220
// KRPS); this binary reports the simulator-scale equivalents and *measures*
// each workload's max load (largest rate sustained without SLO violations at
// 100% FMem) so the configured calibration targets can be checked against
// observed behaviour.
#include "bench/harness.h"
#include "common/csv.h"

using namespace mtat;
using namespace mtat::bench;

int main() {
  const Scale sc = scale_from_env();
  RootContext root = banner("table1_lc_characteristics", "Table 1");
  experiments::ParallelRunner runner = make_runner();
  CsvWriter csv("table1_lc_characteristics.csv",
                {"workload", "rss_gib", "slo_ms", "configured_max_krps", "measured_max_krps"});
  std::printf("%-10s %9s %8s %14s %14s\n", "workload", "RSS(GiB)", "SLO(ms)", "cfg max KRPS",
              "meas max KRPS");
  for (const LCConfig& lc : scaled_lc_configs(sc)) {
    // Measured max load: bisection over constant-rate runs of the workload
    // alone at 100% FMem, requiring < 1% SLO violations. The probe is pure
    // (fresh workload per curve call), so its bisection fans across the
    // runner's workers.
    const auto sustainable = [&](double krps, obs::RunContext&) {
      const auto curve = experiments::lc_latency_curve(lc, 1.0, {krps / lc.max_load_krps},
                                                       sc.measure_window, /*seed=*/1234);
      return curve[0].p99_ms <= static_cast<double>(lc.slo) / 1e6;
    };
    const double measured = experiments::find_max_load(
        sustainable, 0.3 * lc.max_load_krps, 1.6 * lc.max_load_krps, 6, runner, root);
    // RSS: rebuild once to read the true footprint.
    TieredMemory::Config mc =
        TieredMemory::Config::two_tier(1, bytes_to_pages(sc.smem) + bytes_to_pages(sc.fmem));
    TieredMemory mem(mc);
    LCWorkload wl(mem, 0, lc, kTierOnly(kFastestTier + 1), 1);
    const double rss_gib = static_cast<double>(wl.rss()) / (1024.0 * 1024.0 * 1024.0);
    const double slo_ms = static_cast<double>(lc.slo) / 1e6;
    std::printf("%-10s %9.3f %8.0f %14.2f %14.2f\n", lc.name.c_str(), rss_gib, slo_ms,
                lc.max_load_krps, measured);
    csv.row(lc.name, {rss_gib, slo_ms, lc.max_load_krps, measured});
  }
  std::printf("\npaper values (hardware scale): redis 33.6GB/20ms/80K, memcached "
              "31.4GB/20ms/1220K,\n  mongodb 33.2GB/30ms/125K, silo 30.4GB/15ms/11K "
              "(see EXPERIMENTS.md for the mapping)\n");
  return 0;
}
