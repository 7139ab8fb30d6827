// Cross-module property tests and failure injection: determinism, page
// conservation under arbitrary policy churn, quota convergence under random
// plans, SA vs. brute force on random instances, and degenerate-platform
// robustness (zero migration bandwidth, one-page FMem, unattainable SLO).
#include <gtest/gtest.h>

#include "core/ppe.h"
#include "core/sa_partitioner.h"
#include "sim/colocation_sim.h"
#include "workloads/be/be_suite.h"

namespace mtat {
namespace {

SimConfig tiny(PolicyKind policy, std::uint64_t seed = 42) {
  SimConfig cfg;
  cfg.fmem = 32_MiB;
  cfg.smem = 512_MiB;
  cfg.lc = redis_config();
  cfg.lc.n_records = 30'000;
  cfg.be = be_suite(BEScale::kTest, 36_MiB, 4, 2);
  cfg.policy = policy;
  cfg.seed = seed;
  return cfg;
}

// ----------------------------------------------------------- determinism ----

class DeterminismSweep : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(DeterminismSweep, SameSeedSameResult) {
  // The whole simulation is seeded PRNG + integer bookkeeping: two runs with
  // identical configuration must agree bit-for-bit on every reported metric.
  const auto run_once = [&] {
    SimConfig cfg = tiny(GetParam());
    obs::RunContext ctx;
    ColocationSim sim(cfg, &ctx);
    sim.run(LoadPattern::figure7(cfg.lc.max_load_krps * 1000.0), seconds(40));
    return sim.result();
  };
  const SimResult a = run_once();
  const SimResult b = run_once();
  EXPECT_EQ(a.lc_completed, b.lc_completed);
  EXPECT_DOUBLE_EQ(a.lc_p99_ms, b.lc_p99_ms);
  EXPECT_DOUBLE_EQ(a.slo_violation_rate, b.slo_violation_rate);
  EXPECT_DOUBLE_EQ(a.fairness, b.fairness);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.series[i].lc_fmem_share, b.series[i].lc_fmem_share) << i;
    EXPECT_DOUBLE_EQ(a.series[i].lc_p99_ms, b.series[i].lc_p99_ms) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, DeterminismSweep,
                         ::testing::Values(PolicyKind::kMtatFull, PolicyKind::kMemtis,
                                           PolicyKind::kTpp, PolicyKind::kVtmm),
                         [](const auto& info) { return policy_name(info.param); });

TEST(Determinism, DifferentSeedsDiffer) {
  SimConfig a_cfg = tiny(PolicyKind::kMemtis, 1), b_cfg = tiny(PolicyKind::kMemtis, 2);
  obs::RunContext a_ctx, b_ctx;
  ColocationSim a(a_cfg, &a_ctx), b(b_cfg, &b_ctx);
  const LoadPattern pat = LoadPattern::constant(4000.0);
  a.run(pat, seconds(5));
  b.run(pat, seconds(5));
  EXPECT_NE(a.result().lc_completed, b.result().lc_completed);
}

// ----------------------------------------------- conservation properties ----

class ChurnSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnSweep, InvariantsHoldUnderRandomQuotaPlans) {
  // Fire arbitrary (valid) quota plans at PP-E while telemetry streams in;
  // after every settling period the fast tier must be exactly quota-shaped
  // and global page accounting intact.
  TieredMemory::Config mc =
      TieredMemory::Config::two_tier(128, 2048);
  TieredMemory mem(mc);
  MigrationEngine engine(mem, {1e12, {}});
  AccessSampler sampler(mem);
  PolicyContext ctx;
  ctx.mem = &mem;
  ctx.engine = &engine;
  ctx.sampler = &sampler;
  mem.allocate(0, 300, kFastestFirst);
  mem.allocate(1, 300, kFastestFirst);
  mem.allocate(2, 300, kTierOnly(Tier::kSMem));
  ctx.tenants = {{0, true}, {1, false}, {2, false}};
  PartitionEnforcer ppe(ctx, {});
  Rng rng(GetParam());
  for (int round = 0; round < 30; ++round) {
    // Random plan summing to <= capacity, each tenant capped by its RSS.
    std::uint64_t left = 128;
    std::vector<std::uint64_t> quotas(3);
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t q = rng.next_below(std::min<std::uint64_t>(left, 128) + 1);
      quotas[static_cast<std::size_t>(i)] = q;
      left -= q;
    }
    ppe.set_plan(quotas);
    // Random telemetry while the plan executes.
    for (int tick = 0; tick < 40; ++tick) {
      engine.begin_interval(milliseconds(10));
      for (int s = 0; s < 20; ++s) {
        const WorkloadId w = static_cast<WorkloadId>(rng.next_below(3));
        const auto& pages = mem.pages_of(w);
        sampler.on_sampled_access(w, pages[rng.next_below(pages.size())], AccessKind::kRead);
      }
      ppe.on_tick();
    }
    ASSERT_FALSE(ppe.plan_active()) << "round " << round;
    for (int i = 0; i < 3; ++i)
      ASSERT_EQ(mem.workload_pages(static_cast<WorkloadId>(i), Tier::kFMem),
                quotas[static_cast<std::size_t>(i)])
          << "round " << round << " tenant " << i;
    ASSERT_EQ(mem.used(Tier::kFMem) + mem.used(Tier::kSMem), mem.page_count());
    if (round % 7 == 0) ppe.age_histograms();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnSweep, ::testing::Values(1u, 7u, 13u, 99u, 12345u));

// ----------------------------------------------------- SA vs brute force ----

class SaRandomInstances : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SaRandomInstances, WithinFivePercentOfBruteForce) {
  Rng rng(GetParam());
  // Random 3-workload piecewise-linear NP curves.
  std::vector<double> base(3), slope(3);
  for (int i = 0; i < 3; ++i) {
    base[static_cast<std::size_t>(i)] = 0.2 + 0.3 * rng.next_double();
    slope[static_cast<std::size_t>(i)] = (0.3 + rng.next_double()) / 400.0;
  }
  const auto np = [&](int i, std::uint64_t p) {
    return std::min(1.0, base[static_cast<std::size_t>(i)] +
                             slope[static_cast<std::size_t>(i)] * static_cast<double>(p));
  };
  std::vector<BEPerfModel> models;
  for (int i = 0; i < 3; ++i)
    models.push_back({[&np, i](std::uint64_t p) { return np(i, p); }, 400});
  const std::uint64_t total = 300, unit = 10;
  double brute = 0;
  for (std::uint64_t a = 0; a <= total; a += unit)
    for (std::uint64_t b = 0; a + b <= total; b += unit)
      brute = std::max(brute, std::min({np(0, a), np(1, b), np(2, total - a - b)}));
  SAOptions opt;
  opt.unit_pages = unit;
  opt.max_iterations = 6000;
  Rng sa_rng(GetParam() + 1);
  const SAResult r = anneal_be_partition(models, total, opt, sa_rng);
  EXPECT_GE(r.objective, brute * 0.95) << "brute " << brute;
  std::uint64_t sum = 0;
  for (auto v : r.allocation) sum += v;
  EXPECT_EQ(sum, total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SaRandomInstances,
                         ::testing::Values(3u, 17u, 23u, 31u, 47u, 101u));

// ------------------------------------------------------ failure injection ----

TEST(FailureInjection, ZeroMigrationBudgetFreezesPlacementNotTheSim) {
  // (MTAT itself refuses to construct with a zero action range — Eq. 1's
  // bound would be empty — so the frozen-platform case uses MEMTIS.)
  SimConfig cfg = tiny(PolicyKind::kMemtis);
  cfg.migration_bandwidth = 1.0;  // ~0 pages/s: nothing can ever move
  obs::RunContext ctx;
  ColocationSim sim(cfg, &ctx);
  const auto before = sim.mem().workload_pages(0, Tier::kFMem);
  sim.run(LoadPattern::constant(2000.0), seconds(5));
  EXPECT_EQ(sim.mem().workload_pages(0, Tier::kFMem), before);
  EXPECT_GT(sim.result().lc_completed, 0u);  // requests still served
}

TEST(FailureInjection, OnePageFMemPlatform) {
  TieredMemory::Config mc =
      TieredMemory::Config::two_tier(1, 1 << 16);
  TieredMemory mem(mc);
  MigrationEngine engine(mem, {1e12, {}});
  AccessSampler sampler(mem);
  PolicyContext ctx;
  ctx.mem = &mem;
  ctx.engine = &engine;
  ctx.sampler = &sampler;
  mem.allocate(0, 100, kFastestFirst);
  mem.allocate(1, 100, kTierOnly(Tier::kSMem));
  ctx.tenants = {{0, true}, {1, false}};
  MemtisPolicy memtis(ctx);
  for (int i = 0; i < 50; ++i) {
    sampler.on_sampled_access(1, mem.pages_of(1)[0], AccessKind::kRead);
    engine.begin_interval(milliseconds(10));
    memtis.on_tick(0, milliseconds(10));
    memtis.on_interval(0, seconds(1), 0);
  }
  EXPECT_EQ(mem.used(Tier::kFMem), 1u);  // never over capacity
}

TEST(FailureInjection, PermanentOverloadKeepsGuardPegged) {
  // Load far beyond any placement's capacity: everything violates, the guard
  // pins the LC reservation at capacity, and the sim stays alive throughout.
  SimConfig cfg = tiny(PolicyKind::kMtatFull);
  obs::RunContext ctx;
  ColocationSim sim(cfg, &ctx);
  sim.run(LoadPattern::constant(cfg.lc.max_load_krps * 3000.0), seconds(10));
  const SimResult r = sim.result();
  EXPECT_GT(r.slo_violation_rate, 0.9);
  EXPECT_GT(r.series.back().lc_fmem_share, 0.9);  // guard pegged at max
}

TEST(FailureInjection, PatternWithIdleGaps) {
  SimConfig cfg = tiny(PolicyKind::kMemtis);
  const LoadPattern pat({{seconds(2), 2000.0}, {seconds(3), 0.0}, {seconds(2), 2000.0}});
  obs::RunContext ctx;
  ColocationSim sim(cfg, &ctx);
  sim.run(pat, seconds(7));
  const SimResult r = sim.result();
  // The idle window serves nothing but the run completes and resumes.
  EXPECT_NEAR(static_cast<double>(r.lc_completed), 8000.0, 600.0);
}

TEST(FailureInjection, BeOnlyPlatformHasNoLcTenantToBreak) {
  // PolicyContext without an LC tenant: lc_tenant() must throw rather than
  // return garbage.
  PolicyContext ctx;
  ctx.tenants = {{0, false}, {1, false}};
  EXPECT_THROW(ctx.lc_tenant(), std::logic_error);
}

}  // namespace
}  // namespace mtat
