// Experiment driver tests: find_max_load edge cases (failure at lo, a
// degenerate bracket, the non-monotone guard), ParallelRunner mechanics
// (every spec exactly once, exception propagation, spec-order trace merging)
// and the determinism contract — jobs=1 and jobs=4 must produce bit-identical
// results and metric values for the same seeds.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/names.h"
#include "obs/run_context.h"
#include "obs/trace.h"
#include "sim/colocation_sim.h"
#include "sim/experiments.h"
#include "workloads/be/be_suite.h"

namespace mtat::experiments {
namespace {

SimConfig tiny_config(PolicyKind policy, int n_be = 2) {
  SimConfig cfg;
  cfg.fmem = 32_MiB;
  cfg.smem = 512_MiB;
  cfg.lc = redis_config();
  cfg.lc.n_records = 30'000;
  cfg.be = be_suite(BEScale::kTest, 36_MiB, 4, n_be);
  cfg.policy = policy;
  return cfg;
}

// ---------------------------------------------------- find_max_load, serial --

TEST(FindMaxLoad, PredicateFalseEverywhereReturnsLoAfterOneProbe) {
  int calls = 0;
  const double r = find_max_load(
      [&](double) {
        ++calls;
        return false;
      },
      2.0, 16.0, 7);
  EXPECT_DOUBLE_EQ(r, 2.0);
  EXPECT_EQ(calls, 1);  // infeasible at lo: no bisection probes at all
}

TEST(FindMaxLoad, DegenerateBracketLoEqualsHi) {
  EXPECT_DOUBLE_EQ(find_max_load([](double) { return true; }, 4.0, 4.0, 7), 4.0);
  EXPECT_DOUBLE_EQ(find_max_load([](double) { return false; }, 4.0, 4.0, 7), 4.0);
}

TEST(FindMaxLoad, NonFiniteOrInvertedBracketThrows) {
  // A NaN bound would otherwise poison every bisection midpoint and return
  // silently wrong capacities; both overloads must refuse up front.
  const auto yes = [](double) { return true; };
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(find_max_load(yes, nan, 16.0, 7), std::invalid_argument);
  EXPECT_THROW(find_max_load(yes, 1.0, inf, 7), std::invalid_argument);
  EXPECT_THROW(find_max_load(yes, 8.0, 4.0, 7), std::invalid_argument);
  ParallelRunner runner(2);
  obs::RunContext parent;
  const auto yes_ctx = [](double, obs::RunContext&) { return true; };
  EXPECT_THROW(find_max_load(yes_ctx, nan, 16.0, 7, runner, parent), std::invalid_argument);
  EXPECT_THROW(find_max_load(yes_ctx, 1.0, inf, 7, runner, parent), std::invalid_argument);
  EXPECT_THROW(find_max_load(yes_ctx, 8.0, 4.0, 7, runner, parent), std::invalid_argument);
}

TEST(FindMaxLoad, ZeroItersProbesLoOnly) {
  int calls = 0;
  const double r = find_max_load(
      [&](double) {
        ++calls;
        return true;
      },
      3.0, 16.0, 0);
  EXPECT_DOUBLE_EQ(r, 3.0);
  EXPECT_EQ(calls, 1);
}

TEST(FindMaxLoad, NonMonotoneGuardOnlyReturnsAcceptedValues) {
  // A non-monotone "island" predicate: feasible below 5, infeasible in
  // (5, 9), feasible again on [9, 10]. The documented guard is that the
  // result (beyond lo itself) is always a value the predicate actually
  // accepted during the search — never an interpolation into the gap.
  const auto island = [](double k) { return k <= 5.0 || (k >= 9.0 && k <= 10.0); };
  for (int iters : {1, 3, 6, 10}) {
    const double r = find_max_load(island, 1.0, 16.0, iters);
    EXPECT_TRUE(island(r)) << "iters=" << iters << " returned unaccepted " << r;
  }
}

// -------------------------------------------------- find_max_load, parallel --

TEST(FindMaxLoad, ParallelMatchesSerialBitForBitAtEveryJobCount) {
  const auto pure = [](double k) { return k <= 6.283; };
  for (int iters : {0, 1, 2, 3, 5, 8}) {
    const double serial = find_max_load(pure, 1.0, 16.0, iters);
    for (int jobs : {1, 4}) {
      ParallelRunner runner(jobs);
      obs::RunContext parent;
      const double par = find_max_load([&](double k, obs::RunContext&) { return pure(k); },
                                       1.0, 16.0, iters, runner, parent);
      // Exact ==, not near: the contract is bit-identical doubles.
      EXPECT_EQ(serial, par) << "iters=" << iters << " jobs=" << jobs;
    }
  }
}

TEST(FindMaxLoad, ParallelProbeSetIsJobsInvariant) {
  const auto probed_points = [](int jobs) {
    std::set<double> points;
    std::mutex mu;
    ParallelRunner runner(jobs);
    obs::RunContext parent;
    find_max_load(
        [&](double k, obs::RunContext&) {
          std::lock_guard<std::mutex> lock(mu);
          points.insert(k);
          return k <= 11.5;
        },
        1.0, 16.0, 6, runner, parent);
    return points;
  };
  // The speculative frontier depends only on [lo, hi] and iters — jobs=1 and
  // jobs=4 must evaluate the predicate at exactly the same set of loads.
  EXPECT_EQ(probed_points(1), probed_points(4));
}

TEST(FindMaxLoad, ParallelInfeasibleAtLoReturnsLo) {
  ParallelRunner runner(4);
  obs::RunContext parent;
  const double r = find_max_load([](double, obs::RunContext&) { return false; }, 2.0,
                                 16.0, 5, runner, parent);
  EXPECT_DOUBLE_EQ(r, 2.0);
}

TEST(FindMaxLoad, ParallelDegenerateBracketLoEqualsHi) {
  ParallelRunner runner(4);
  obs::RunContext parent;
  const double r = find_max_load([](double, obs::RunContext&) { return true; }, 4.0, 4.0, 7,
                                 runner, parent);
  EXPECT_DOUBLE_EQ(r, 4.0);
}

// ------------------------------------------------- ParallelRunner mechanics --

TEST(ParallelRunner, JobsDefaultToHardwareConcurrencyFloorOne) {
  EXPECT_GE(ParallelRunner(0).jobs(), 1);
  EXPECT_GE(ParallelRunner(-3).jobs(), 1);
  EXPECT_EQ(ParallelRunner(4).jobs(), 4);
}

TEST(ParallelRunner, RunsEverySpecExactlyOnce) {
  ParallelRunner runner(4);
  obs::RunContext parent;
  constexpr int kSpecs = 17;
  std::vector<int> hits(kSpecs, 0);  // disjoint slots, one writer each
  std::atomic<int> total{0};
  std::vector<RunSpec> specs;
  for (int i = 0; i < kSpecs; ++i)
    specs.push_back({"spec" + std::to_string(i), [&hits, &total, i](obs::RunContext&) {
                       ++hits[static_cast<std::size_t>(i)];
                       total.fetch_add(1);
                     }});
  runner.run_all(specs, parent);
  EXPECT_EQ(total.load(), kSpecs);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelRunner, EmptySpecListIsANoOp) {
  ParallelRunner runner(4);
  obs::RunContext parent;
  runner.run_all({}, parent);
}

TEST(ParallelRunner, SpecExceptionPropagatesToCaller) {
  for (int jobs : {1, 3}) {
    ParallelRunner runner(jobs);
    obs::RunContext parent;
    std::vector<RunSpec> specs;
    specs.push_back({"ok", [](obs::RunContext&) {}});
    specs.push_back(
        {"boom", [](obs::RunContext&) { throw std::runtime_error("boom"); }});
    EXPECT_THROW(runner.run_all(specs, parent), std::runtime_error) << "jobs=" << jobs;
  }
}

TEST(ParallelRunner, NestedRunAllThrowsLogicError) {
  // Reentrancy is an explicit error: a spec that drives another run_all —
  // through the same runner or a different instance — gets std::logic_error
  // from the inner call, and the outer run_all rethrows it like any spec
  // failure. Without the guard, a one-worker pool would deadlock here.
  for (int jobs : {1, 3}) {
    ParallelRunner outer(jobs);
    ParallelRunner inner(1);
    obs::RunContext parent;
    std::atomic<int> inner_ran{0};
    std::vector<RunSpec> specs;
    specs.push_back({"nests", [&inner, &inner_ran](obs::RunContext& ctx) {
                       std::vector<RunSpec> nested;
                       nested.push_back({"never", [&inner_ran](obs::RunContext&) {
                                           inner_ran.fetch_add(1);
                                         }});
                       inner.run_all(nested, ctx);
                     }});
    EXPECT_THROW(outer.run_all(specs, parent), std::logic_error) << "jobs=" << jobs;
    EXPECT_EQ(inner_ran.load(), 0) << "jobs=" << jobs;
    // The guard must release on the error path: a fresh top-level run_all
    // right after the failure works normally.
    std::atomic<int> ran{0};
    std::vector<RunSpec> ok;
    ok.push_back({"after", [&ran](obs::RunContext&) { ran.fetch_add(1); }});
    outer.run_all(ok, parent);
    EXPECT_EQ(ran.load(), 1) << "jobs=" << jobs;
  }
}

TEST(ParallelRunner, SpecsGetPrivateTraceContexts) {
  // Every spec runs in a fresh context of its own — never the parent, never
  // a sibling's — so its metrics stay its own: each spec sees an empty
  // registry, and nothing a spec records reaches the parent's.
  obs::RunContext parent;
  parent.metrics().counter(obs::names::kSimIntervals).inc();
  ParallelRunner runner(2);
  std::vector<RunSpec> specs;
  std::vector<int> is_parent(3, -1);
  std::vector<double> seen(3, -1.0);
  for (int i = 0; i < 3; ++i)
    specs.push_back({"ctx" + std::to_string(i), [&, i](obs::RunContext& ctx) {
                       const auto slot = static_cast<std::size_t>(i);
                       is_parent[slot] = &ctx == &parent ? 1 : 0;
                       obs::Counter& c = ctx.metrics().counter(obs::names::kSimIntervals);
                       seen[slot] = c.value();
                       c.inc();
                     }});
  runner.run_all(specs, parent);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(is_parent[i], 0) << i;
    EXPECT_EQ(seen[i], 0.0) << i;
  }
  EXPECT_EQ(parent.metrics().find_counter(obs::names::kSimIntervals)->value(), 1.0);
}

/// Runs three specs under a parent whose recorder is enabled at
/// `trace_capacity` (0: untraced), each stamping one event at its own sim
/// time; returns the parent's merged events and each spec's ring capacity.
std::vector<obs::TraceEvent> merged_spec_events(int jobs, std::size_t trace_capacity,
                                                std::vector<std::size_t>* capacities) {
  obs::RunContext parent;
  if (trace_capacity > 0) parent.trace().enable(trace_capacity);
  ParallelRunner runner(jobs);
  std::vector<RunSpec> specs;
  capacities->assign(3, 1);
  for (int i = 0; i < 3; ++i)
    specs.push_back({"trace" + std::to_string(i), [i, capacities](obs::RunContext& ctx) {
                       (*capacities)[static_cast<std::size_t>(i)] = ctx.trace().capacity();
                       ctx.trace().set_now(SimTime{1000} * (i + 1));
                       ctx.trace().instant(obs::names::kEvInterval, obs::names::kCatSim);
                     }});
  runner.run_all(specs, parent);
  return parent.trace().snapshot();
}

TEST(ParallelRunner, MergesPrivateTracesInSpecOrderWithDistinctTracks) {
  std::vector<obs::TraceEvent> reference;
  for (int jobs : {1, 4}) {
    std::vector<std::size_t> capacities;
    const std::vector<obs::TraceEvent> events = merged_spec_events(jobs, 1024, &capacities);
    // Each spec's ring was enabled at the parent's capacity.
    for (std::size_t c : capacities) EXPECT_EQ(c, 1024u) << "jobs=" << jobs;
    ASSERT_EQ(events.size(), 3u);
    std::set<std::uint32_t> tracks;
    for (std::size_t i = 0; i < events.size(); ++i) {
      // Merge happens in spec order: event i carries spec i's timestamp.
      EXPECT_EQ(events[i].ts, SimTime{1000} * (static_cast<int>(i) + 1)) << "jobs=" << jobs;
      tracks.insert(events[i].track);
    }
    EXPECT_EQ(tracks.size(), 3u);  // one distinct track per merged context
    if (reference.empty()) reference = events;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].ts, reference[i].ts) << "jobs=" << jobs;
      EXPECT_EQ(events[i].track, reference[i].track) << "jobs=" << jobs;
    }
  }
}

TEST(ParallelRunner, UntracedParentLeavesSpecRingsUnallocated) {
  std::vector<std::size_t> capacities;
  EXPECT_TRUE(merged_spec_events(2, 0, &capacities).empty());
  for (std::size_t c : capacities) EXPECT_EQ(c, 0u);
}

// --------------------------------------- determinism across the job counts --

/// Drops metric rows measuring host wall time (policy.wall_us and friends):
/// they time real execution with steady_clock, so they vary run to run even
/// serially and are explicitly outside the determinism contract.
std::string drop_wall_metrics(const std::string& csv) {
  std::istringstream in(csv);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line))
    if (line.find("wall_us") == std::string::npos) out << line << '\n';
  return out.str();
}

/// Runs a small grid of independent sims through a runner and captures every
/// result field and the full per-context metrics dump at full precision.
std::vector<std::string> sim_grid_fingerprints(int jobs) {
  const std::vector<PolicyKind> policies = {PolicyKind::kFmemAll, PolicyKind::kMemtis};
  std::vector<std::string> rows(policies.size());
  ParallelRunner runner(jobs);
  std::vector<RunSpec> specs;
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const PolicyKind policy = policies[i];
    specs.push_back({"grid" + std::to_string(i), [&rows, i, policy](obs::RunContext& ctx) {
                       SimConfig cfg = tiny_config(policy);
                       ColocationSim sim(cfg, &ctx);
                       const LoadPattern pat =
                           LoadPattern::constant(cfg.lc.max_load_krps * 1000.0 * 0.5);
                       sim.run(pat, seconds(5));
                       const SimResult r = sim.result();
                       std::ostringstream ss;
                       ss.precision(17);
                       ss << r.fairness << ',' << r.be_total_throughput << ','
                          << r.slo_violation_rate << ',' << r.lc_completed << '\n';
                       ctx.metrics().write_csv(ss);
                       rows[i] = drop_wall_metrics(ss.str());
                     }});
  }
  obs::RunContext parent;
  runner.run_all(specs, parent);
  return rows;
}

TEST(ParallelRunner, SimResultsAndMetricsBitIdenticalAcrossJobCounts) {
  const std::vector<std::string> serial = sim_grid_fingerprints(1);
  const std::vector<std::string> parallel = sim_grid_fingerprints(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) EXPECT_EQ(serial[i], parallel[i]) << i;
}

TEST(LatencyCurve, SerialAndParallelPointsBitIdentical) {
  LCConfig lc = redis_config();
  lc.n_records = 30'000;
  const std::vector<double> loads = {0.4, 0.9};
  const auto serial = experiments::lc_latency_curve(lc, 0.5, loads, seconds(5), 7);
  ParallelRunner runner(4);
  const auto parallel = experiments::lc_latency_curve(lc, 0.5, loads, seconds(5), 7, &runner);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].offered_krps, parallel[i].offered_krps) << i;
    EXPECT_EQ(serial[i].p99_ms, parallel[i].p99_ms) << i;
    EXPECT_EQ(serial[i].achieved_krps, parallel[i].achieved_krps) << i;
  }
}

}  // namespace
}  // namespace mtat::experiments
