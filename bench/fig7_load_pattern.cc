// Figure 7: the dynamic load pattern itself — 20% of max load, stepping up
// 20% every 20 s to 100%, holding, then stepping back down.
#include "bench/harness.h"
#include "common/csv.h"

using namespace mtat;
using namespace mtat::bench;

int main() {
  RootContext root = banner("fig7_load_pattern", "Figure 7");
  const LoadPattern p = LoadPattern::figure7(100.0);  // in % of max load
  CsvWriter csv("fig7_load_pattern.csv", {"t_sec", "load_pct_of_max"});
  std::printf("%6s %6s   profile\n", "t(s)", "load%");
  for (int t = 0; t < 240; t += 5) {
    const double pct = p.rate_at(seconds(static_cast<std::uint64_t>(t)));
    csv.row({static_cast<double>(t), pct});
    if (t % 10 == 0) {
      std::printf("%6d %5.0f%%  |", t, pct);
      for (int i = 0; i < static_cast<int>(pct / 2); ++i) std::printf("#");
      std::printf("\n");
    }
  }
  return 0;
}
