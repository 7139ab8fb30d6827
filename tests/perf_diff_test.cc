// Tests for tools/perf_diff — the BENCH_*.json regression gate.
//
// Drives the library directly (the tools/lint pattern): parsing/schema
// validation, the higher-is-better regression rule, the strict metric-key-set
// check, and the report. The rules here are what keeps the CI gate honest:
// a malformed trajectory or a silently renamed metric must be a loud error,
// never a pass.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/names.h"
#include "perf_diff.h"

namespace mtat::perf_diff {
namespace {

std::string write_temp(const char* name, const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::trunc);
  out << body;
  EXPECT_TRUE(out.good());
  return path;
}

Entry entry(const char* label,
            std::vector<std::pair<std::string, double>> metrics,
            const char* scale = "small") {
  Entry e;
  e.label = label;
  e.scale = scale;
  e.metrics = std::move(metrics);
  return e;
}

// ------------------------------------------------------------ parsing ----

TEST(PerfDiffLoad, ParsesAWellFormedTrajectory) {
  // Real metric names come from obs::names constants — string literals in
  // the perf. domain are a lint error everywhere, including tests.
  const std::string path = write_temp("ok.json", std::string(R"({
    "bench": "perf_core",
    "entries": [
      {"label": "a", "scale": "small", "metrics": {")") +
        obs::names::kPerfSimStepsPerSec + R"(": 100.0}},
      {"label": "b", "scale": "small", "metrics": {")" +
        obs::names::kPerfSimStepsPerSec + R"(": 150.0}}
    ]
  })");
  const BenchFile f = load_bench_file(path);
  EXPECT_EQ(f.bench, "perf_core");
  ASSERT_EQ(f.entries.size(), 2u);
  EXPECT_EQ(f.entries[0].label, "a");
  EXPECT_EQ(f.entries[1].label, "b");
  ASSERT_EQ(f.entries[1].metrics.size(), 1u);
  EXPECT_EQ(f.entries[1].metrics[0].first, obs::names::kPerfSimStepsPerSec);
  EXPECT_DOUBLE_EQ(f.entries[1].metrics[0].second, 150.0);
}

TEST(PerfDiffLoad, MalformedJsonIsALoudErrorNamingThePath) {
  const std::string path = write_temp("bad.json", "{\"bench\": \"x\", \"entries\": [");
  try {
    load_bench_file(path);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "error must name the offending file: " << e.what();
  }
}

TEST(PerfDiffLoad, MissingFileThrows) {
  EXPECT_THROW(load_bench_file(::testing::TempDir() + "/does_not_exist.json"),
               std::runtime_error);
}

TEST(PerfDiffLoad, SchemaViolationsThrow) {
  // Fake metric names are fine here: perf_diff is domain-agnostic, and the
  // schema rules are what is under test.
  EXPECT_THROW(load_bench_file(write_temp("s1.json", R"({"entries": []})")),
               std::runtime_error);  // no "bench"
  EXPECT_THROW(load_bench_file(write_temp("s2.json", R"({"bench": "x"})")),
               std::runtime_error);  // no "entries"
  EXPECT_THROW(
      load_bench_file(write_temp("s3.json", R"({"bench": "x", "entries": [{}]})")),
      std::runtime_error);  // entry without label/metrics
  EXPECT_THROW(
      load_bench_file(write_temp(
          "s4.json",
          R"({"bench": "x", "entries": [{"label": "a", "scale": "s", "metrics": {}}]})")),
      std::runtime_error);  // empty metrics
  EXPECT_THROW(
      load_bench_file(write_temp(
          "s5.json",
          R"({"bench": "x", "entries": [{"label": "a", "scale": "s", "metrics": {"m": -1.0}}]})")),
      std::runtime_error);  // negative ops/s
  EXPECT_THROW(
      load_bench_file(write_temp(
          "s6.json",
          R"({"bench": "x", "entries": [{"label": "a", "scale": "s", "metrics": {"m": "fast"}}]})")),
      std::runtime_error);  // non-numeric metric
}

// --------------------------------------------------------- comparison ----

TEST(PerfDiffCompare, ImprovementPasses) {
  const Comparison c = compare(entry("before", {{"widgets", 100.0}, {"gadgets", 50.0}}),
                               entry("after", {{"widgets", 180.0}, {"gadgets", 50.0}}));
  EXPECT_FALSE(c.any_regression(0.15));
  ASSERT_EQ(c.deltas.size(), 2u);
  EXPECT_DOUBLE_EQ(c.deltas[0].ratio(), 1.8);
  EXPECT_FALSE(c.deltas[0].regressed(0.15));
}

TEST(PerfDiffCompare, RegressionBeyondThresholdFails) {
  const Comparison c = compare(entry("before", {{"widgets", 100.0}}),
                               entry("after", {{"widgets", 84.0}}));
  EXPECT_TRUE(c.deltas[0].regressed(0.15));   // 16% down
  EXPECT_FALSE(c.deltas[0].regressed(0.20));  // looser gate tolerates it
  EXPECT_TRUE(c.any_regression(0.15));
}

TEST(PerfDiffCompare, DipWithinTheNoiseThresholdPasses) {
  const Comparison c = compare(entry("before", {{"widgets", 100.0}}),
                               entry("after", {{"widgets", 90.0}}));
  EXPECT_FALSE(c.any_regression(0.15));
}

TEST(PerfDiffCompare, MissingAndExtraMetricKeysAreLoudErrors) {
  const Entry before = entry("before", {{"widgets", 1.0}, {"gadgets", 2.0}});
  const Entry after = entry("after", {{"widgets", 1.0}, {"sprockets", 3.0}});
  try {
    compare(before, after);
    FAIL() << "expected a key-set mismatch error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gadgets"), std::string::npos) << what;
    EXPECT_NE(what.find("sprockets"), std::string::npos) << what;
  }
}

TEST(PerfDiffCompare, DifferentScalesAreALoudError) {
  // A smoke-scale rate sits far below a small-scale one without anything
  // having regressed; pairing them would print a false verdict.
  try {
    compare(entry("committed", {{"widgets", 100.0}}, "small"),
            entry("fresh", {{"widgets", 50.0}}, "smoke"));
    FAIL() << "expected a scale mismatch error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("small"), std::string::npos) << what;
    EXPECT_NE(what.find("smoke"), std::string::npos) << what;
    EXPECT_NE(what.find("fresh"), std::string::npos) << what;
  }
  EXPECT_EQ(compare(entry("a", {{"w", 1.0}}, "smoke"), entry("b", {{"w", 1.0}}, "smoke")).scale,
            "smoke");
}

TEST(PerfDiffCompare, ZeroBaselines) {
  const Comparison c = compare(entry("before", {{"a", 0.0}, {"b", 0.0}}),
                               entry("after", {{"a", 5.0}, {"b", 0.0}}));
  EXPECT_TRUE(std::isinf(c.deltas[0].ratio()));
  EXPECT_DOUBLE_EQ(c.deltas[1].ratio(), 1.0);  // 0 -> 0 is "unchanged"
  EXPECT_FALSE(c.any_regression(0.15));
}

// --------------------------------------------------------- trajectory ----

TEST(PerfDiffTrajectory, EachEntryIsGatedAgainstTheNearestEarlierSameScaleEntry) {
  BenchFile f;
  f.bench = "perf_core";
  f.entries = {entry("a", {{"w", 1.0}}, "small"), entry("b", {{"w", 1.0}}, "small"),
               entry("c", {{"w", 1.0}}, "smoke"), entry("d", {{"w", 1.0}}, "small"),
               entry("e", {{"w", 1.0}}, "smoke")};
  const std::vector<TrajectoryStep> steps = trajectory_steps(f);
  ASSERT_EQ(steps.size(), 5u);
  const char* expected_before[] = {nullptr, "a", nullptr, "b", "c"};
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i].after, &f.entries[i]);
    if (expected_before[i] == nullptr) {
      EXPECT_EQ(steps[i].before, nullptr) << steps[i].after->label;
    } else {
      ASSERT_NE(steps[i].before, nullptr) << steps[i].after->label;
      EXPECT_EQ(steps[i].before->label, expected_before[i]);
      EXPECT_EQ(steps[i].before->scale, steps[i].after->scale);
    }
  }
}

TEST(PerfDiffTrajectory, AFreshSmokeEntryAfterSmallEntriesIsComparedWithNothing) {
  // The "fresh entry report" shape: committed small-scale entries, then one
  // smoke run appended to a scratch copy. A 0.5x smoke rate is no regression.
  BenchFile f;
  f.bench = "perf_core";
  f.entries = {entry("before", {{"w", 100.0}}), entry("after", {{"w", 120.0}}),
               entry("fresh", {{"w", 50.0}}, "smoke")};
  std::size_t compared = 0;
  for (const TrajectoryStep& step : trajectory_steps(f)) {
    if (step.before == nullptr) continue;
    ++compared;
    EXPECT_FALSE(compare(*step.before, *step.after).any_regression(0.15));
  }
  EXPECT_EQ(compared, 1u);
  EXPECT_EQ(trajectory_steps(f).back().before, nullptr);
}

// ------------------------------------------------------------- report ----

TEST(PerfDiffReport, MarksRegressionsAndStatesTheVerdict) {
  const Comparison c = compare(entry("before", {{"widgets", 100.0}, {"gadgets", 100.0}}),
                               entry("after", {{"widgets", 40.0}, {"gadgets", 120.0}}));
  std::ostringstream os;
  print_report(os, c, 0.15);
  const std::string report = os.str();
  EXPECT_NE(report.find("REGRESSED"), std::string::npos) << report;
  EXPECT_NE(report.find("REGRESSION"), std::string::npos) << report;
  EXPECT_NE(report.find("widgets"), std::string::npos) << report;

  std::ostringstream ok;
  print_report(ok, compare(entry("b", {{"w", 1.0}}), entry("a", {{"w", 2.0}})), 0.15);
  EXPECT_NE(ok.str().find("verdict: ok"), std::string::npos) << ok.str();
  EXPECT_EQ(ok.str().find("REGRESSED"), std::string::npos) << ok.str();
}

// The committed repo-root trajectories must always satisfy their own gates —
// the same check the perf_diff_*trajectory ctests run via the CLI.
TEST(PerfDiffReport, CommittedTrajectoryHasNoAdjacentRegression) {
  for (const char* name :
       {"BENCH_core.json", "BENCH_cluster.json", "BENCH_setup.json", "BENCH_policy.json"}) {
    const BenchFile f = load_bench_file(std::string(MTAT_SOURCE_DIR) + "/" + name);
    std::size_t compared = 0;
    for (const TrajectoryStep& step : trajectory_steps(f)) {
      if (step.before == nullptr) continue;
      ++compared;
      EXPECT_FALSE(compare(*step.before, *step.after).any_regression(0.15))
          << name << ": " << step.before->label << " -> " << step.after->label;
    }
    EXPECT_GE(compared, 1u) << name << " must carry before/after entries";
  }
}

}  // namespace
}  // namespace mtat::perf_diff
