// perf_diff CLI — see perf_diff.h for the rules.
//
// Usage:
//   perf_diff [--threshold=X] [--report-only] BEFORE.json AFTER.json
//       Compare the last entry of each trajectory file.
//   perf_diff [--threshold=X] [--report-only] --trajectory FILE.json
//       Compare every entry within one trajectory file with the nearest
//       earlier entry at the same scale — the deterministic gate
//       tools/check.sh and CI run on the committed BENCH_*.json files, whose
//       entries were produced on one machine. An entry with no earlier
//       same-scale entry is reported by name and compared with nothing.
//
// --threshold=X     noise tolerance as a fraction (default 0.15: a metric
//                   may lose up to 15% before the gate trips)
// --report-only     print the comparison but always exit 0 on a successful
//                   parse — for cross-machine comparisons (fresh run vs the
//                   committed file) where absolute ops/s are not comparable
//
// Exit codes: 0 ok / report-only, 1 regression past the threshold,
// 2 usage error or malformed input (never conflated with a regression).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "perf_diff.h"

namespace {

constexpr double kDefaultThreshold = 0.15;

int usage() {
  std::fprintf(stderr,
               "usage: perf_diff [--threshold=X] [--report-only] BEFORE.json AFTER.json\n"
               "       perf_diff [--threshold=X] [--report-only] --trajectory FILE.json\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = kDefaultThreshold;
  bool report_only = false;
  bool trajectory = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threshold=", 0) == 0) {
      const auto v = mtat::parse_double(arg.substr(12));
      if (!v || *v < 0.0 || *v >= 1.0) {
        std::fprintf(stderr, "perf_diff: invalid --threshold (expected a fraction in [0,1))\n");
        return 2;
      }
      threshold = *v;
    } else if (arg == "--report-only") {
      report_only = true;
    } else if (arg == "--trajectory") {
      trajectory = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "perf_diff: unknown flag %s\n", arg.c_str());
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != (trajectory ? 1u : 2u)) return usage();

  try {
    std::vector<mtat::perf_diff::Comparison> comparisons;
    if (trajectory) {
      const mtat::perf_diff::BenchFile f = mtat::perf_diff::load_bench_file(files[0]);
      for (const mtat::perf_diff::TrajectoryStep& step : mtat::perf_diff::trajectory_steps(f)) {
        if (step.before != nullptr) {
          comparisons.push_back(mtat::perf_diff::compare(*step.before, *step.after));
        } else {
          std::printf("perf_diff: \"%s\" has no earlier entry at scale \"%s\" in %s — "
                      "nothing to compare\n",
                      step.after->label.c_str(), step.after->scale.c_str(), files[0].c_str());
        }
      }
    } else {
      const mtat::perf_diff::BenchFile before = mtat::perf_diff::load_bench_file(files[0]);
      const mtat::perf_diff::BenchFile after = mtat::perf_diff::load_bench_file(files[1]);
      if (before.entries.empty() || after.entries.empty())
        throw std::runtime_error("both files must contain at least one entry");
      comparisons.push_back(
          mtat::perf_diff::compare(before.entries.back(), after.entries.back()));
    }
    bool regressed = false;
    for (const auto& c : comparisons) {
      mtat::perf_diff::print_report(std::cout, c, threshold);
      regressed = regressed || c.any_regression(threshold);
    }
    if (!std::cout.flush()) {
      std::fprintf(stderr, "perf_diff: failed writing report to stdout\n");
      return 2;
    }
    if (report_only) return 0;
    return regressed ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_diff: %s\n", e.what());
    return 2;
  }
}
