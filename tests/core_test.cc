// Tests for MTAT's core: the SA partitioner (Algorithm 2), PP-E (Algorithm 3
// plan execution + refinement), and PP-M (state/reward/guard mechanics).
#include <gtest/gtest.h>

#include "core/mtat_policy.h"
#include "core/ppe.h"
#include "core/ppm.h"
#include "core/sa_partitioner.h"

namespace mtat {
namespace {

// -------------------------------------------------------- SA partitioner ----

BEPerfModel linear_model(double slope, std::uint64_t max_pages) {
  return BEPerfModel{[slope, max_pages](std::uint64_t pages) {
                       const double p = std::min(pages, max_pages);
                       return 0.4 + slope * static_cast<double>(p);
                     },
                     max_pages};
}

TEST(SaPartitioner, RejectsEmptyOrZeroUnit) {
  Rng rng(1);
  SAOptions opt;
  EXPECT_THROW(anneal_be_partition({}, 100, opt, rng), std::invalid_argument);
  opt.unit_pages = 0;
  EXPECT_THROW(anneal_be_partition({linear_model(0.001, 100)}, 100, opt, rng),
               std::invalid_argument);
}

TEST(SaPartitioner, SingleWorkloadGetsEverything) {
  Rng rng(2);
  const auto r = anneal_be_partition({linear_model(0.001, 1000)}, 500, SAOptions{}, rng);
  ASSERT_EQ(r.allocation.size(), 1u);
  EXPECT_EQ(r.allocation[0], 500u);
}

TEST(SaPartitioner, SymmetricWorkloadsSplitEvenly) {
  Rng rng(3);
  std::vector<BEPerfModel> models = {linear_model(0.001, 10000), linear_model(0.001, 10000)};
  SAOptions opt;
  opt.unit_pages = 10;
  const auto r = anneal_be_partition(models, 1000, opt, rng);
  // Even split is optimal for identical concave-ish models; SA should stay
  // near it.
  EXPECT_NEAR(static_cast<double>(r.allocation[0]), 500.0, 150.0);
  EXPECT_EQ(r.allocation[0] + r.allocation[1], 1000u);
}

TEST(SaPartitioner, FavorsTheWorstOffWorkload) {
  // Workload 0 gains 10x more per page: max-min is achieved by equalizing
  // NPs, which needs most pages on the slow-gaining workload 1.
  Rng rng(4);
  std::vector<BEPerfModel> models = {linear_model(0.0010, 100000),
                                     linear_model(0.0001, 100000)};
  SAOptions opt;
  opt.unit_pages = 16;
  opt.max_iterations = 8000;
  const auto r = anneal_be_partition(models, 2000, opt, rng);
  EXPECT_GT(r.allocation[1], r.allocation[0]);
  // And the SA objective must beat the even split's.
  const double even = std::min(models[0].np_at_pages(1000), models[1].np_at_pages(1000));
  EXPECT_GE(r.objective, even);
}

TEST(SaPartitioner, RespectsMaxUsefulPages) {
  Rng rng(5);
  std::vector<BEPerfModel> models = {linear_model(0.001, 100), linear_model(0.001, 100000)};
  SAOptions opt;
  opt.unit_pages = 10;
  opt.max_iterations = 5000;
  const auto r = anneal_be_partition(models, 2000, opt, rng);
  EXPECT_LE(r.allocation[0], 110u);  // cap + at most one unit of slack
}

TEST(SaPartitioner, ObjectiveNearExhaustiveOptimum) {
  // Three workloads with different curves; compare against brute force on a
  // coarse grid of the same unit.
  Rng rng(6);
  const auto np0 = [](std::uint64_t p) { return 0.3 + 0.002 * static_cast<double>(p); };
  const auto np1 = [](std::uint64_t p) { return 0.5 + 0.0005 * static_cast<double>(p); };
  const auto np2 = [](std::uint64_t p) { return 0.4 + 0.001 * static_cast<double>(p); };
  std::vector<BEPerfModel> models = {{np0, 1000}, {np1, 1000}, {np2, 1000}};
  const std::uint64_t total = 600, unit = 20;
  double best = 0;
  for (std::uint64_t a = 0; a <= total; a += unit)
    for (std::uint64_t b = 0; a + b <= total; b += unit)
      best = std::max(best, std::min({np0(a), np1(b), np2(total - a - b)}));
  SAOptions opt;
  opt.unit_pages = unit;
  opt.max_iterations = 6000;
  const auto r = anneal_be_partition(models, total, opt, rng);
  EXPECT_GE(r.objective, best * 0.97);
}

// ------------------------------------------------------------------ PP-E ----

struct PpeHarness {
  TieredMemory mem;
  MigrationEngine engine;
  AccessSampler sampler;
  PolicyContext ctx;

  explicit PpeHarness(std::uint64_t fmem = 64, std::uint64_t smem = 512)
      : mem([&] {
          TieredMemory::Config c =
              TieredMemory::Config::two_tier(fmem, smem);
          return c;
        }()),
        engine(mem, {1e12, {}}),  // effectively unlimited per-interval bandwidth
        sampler(mem) {
    ctx.mem = &mem;
    ctx.engine = &engine;
    ctx.sampler = &sampler;
  }

  void add_tenant(WorkloadId id, bool lc, std::uint64_t pages, AllocPolicy alloc) {
    mem.allocate(id, pages, alloc);
    ctx.tenants.push_back(TenantInfo{id, lc});
  }
};

TEST(Ppe, InitialQuotasMatchResidency) {
  PpeHarness h;
  h.add_tenant(0, true, 40, kFastestFirst);
  h.add_tenant(1, false, 100, kFastestFirst);  // 24 in FMem, rest spill
  PartitionEnforcer ppe(h.ctx, {});
  EXPECT_EQ(ppe.quota(0), 40u);
  EXPECT_EQ(ppe.quota(1), 24u);
  EXPECT_FALSE(ppe.plan_active());
}

TEST(Ppe, PlanExecutesToTargets) {
  PpeHarness h;
  h.add_tenant(0, true, 40, kFastestFirst);
  h.add_tenant(1, false, 100, kFastestFirst);
  PartitionEnforcer ppe(h.ctx, {});
  // Shrink LC to 10, give BE 54.
  ppe.set_plan({10, 54});
  EXPECT_TRUE(ppe.plan_active());
  for (int i = 0; i < 50 && ppe.plan_active(); ++i) {
    h.engine.begin_interval(milliseconds(10));
    ppe.on_tick();
  }
  EXPECT_FALSE(ppe.plan_active());
  EXPECT_EQ(h.mem.workload_pages(0, Tier::kFMem), 10u);
  EXPECT_EQ(h.mem.workload_pages(1, Tier::kFMem), 54u);
}

TEST(Ppe, LcExpansionEvictsBeProportionally) {
  PpeHarness h;
  h.add_tenant(0, true, 100, kTierOnly(Tier::kSMem));
  h.add_tenant(1, false, 40, kFastestFirst);
  h.add_tenant(2, false, 40, kFastestFirst);  // 24 in FMem
  PartitionEnforcer ppe(h.ctx, {});
  ppe.set_plan({64, 0, 0});  // LC takes the whole fast tier
  for (int i = 0; i < 50 && ppe.plan_active(); ++i) {
    h.engine.begin_interval(milliseconds(10));
    ppe.on_tick();
  }
  EXPECT_EQ(h.mem.workload_pages(0, Tier::kFMem), 64u);
  EXPECT_EQ(h.mem.workload_pages(1, Tier::kFMem), 0u);
  EXPECT_EQ(h.mem.workload_pages(2, Tier::kFMem), 0u);
}

TEST(Ppe, PMaxBoundsPerSliceMovement) {
  PpeHarness h;
  h.add_tenant(0, true, 100, kTierOnly(Tier::kSMem));
  h.add_tenant(1, false, 64, kTierOnly(Tier::kFMem));
  PartitionEnforcer::Options opt;
  opt.p_max = 8;
  PartitionEnforcer ppe(h.ctx, opt);
  ppe.set_plan({64, 0});
  h.engine.begin_interval(seconds(1));
  ppe.on_tick();
  EXPECT_EQ(h.mem.workload_pages(0, Tier::kFMem), 8u);  // one slice only
  EXPECT_TRUE(ppe.plan_active());
}

TEST(Ppe, PlanPrefersHotPagesForPromotion) {
  PpeHarness h;
  h.add_tenant(0, true, 100, kTierOnly(Tier::kSMem));
  h.add_tenant(1, false, 64, kTierOnly(Tier::kFMem));
  PartitionEnforcer ppe(h.ctx, {});
  // Mark ten LC pages hot via the sampler (PP-E's histograms are sinks).
  const auto& pages = h.mem.pages_of(0);
  for (int rep = 0; rep < 4; ++rep)
    for (int i = 0; i < 10; ++i)
      h.sampler.on_sampled_access(0, pages[static_cast<std::size_t>(i)], AccessKind::kRead);
  ppe.set_plan({10, 54});
  for (int i = 0; i < 20 && ppe.plan_active(); ++i) {
    h.engine.begin_interval(milliseconds(10));
    ppe.on_tick();
  }
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(h.mem.tier_of(pages[static_cast<std::size_t>(i)]), Tier::kFMem) << i;
}

TEST(Ppe, RefinementSwapsHotForColdWithinPartition) {
  PpeHarness h;
  h.add_tenant(0, true, 100, kFastestFirst);  // 64 in FMem, 36 in SMem
  PartitionEnforcer ppe(h.ctx, {});
  const auto& pages = h.mem.pages_of(0);
  // Make one SMem-resident page very hot.
  const PageId hot = pages[80];
  ASSERT_EQ(h.mem.tier_of(hot), Tier::kSMem);
  for (int i = 0; i < 8; ++i) h.sampler.on_sampled_access(0, hot, AccessKind::kRead);
  h.engine.begin_interval(milliseconds(10));
  ppe.on_tick();  // no plan -> refinement
  EXPECT_EQ(h.mem.tier_of(hot), Tier::kFMem);
  // Quota unchanged: refinement exchanges preserve partition sizes.
  EXPECT_EQ(h.mem.workload_pages(0, Tier::kFMem), 64u);
}

TEST(Ppe, FullModeIsolatesBePartitions) {
  PpeHarness h;
  h.add_tenant(0, true, 10, kTierOnly(Tier::kSMem));
  h.add_tenant(1, false, 60, kFastestFirst);
  h.add_tenant(2, false, 60, kTierOnly(Tier::kSMem));
  PartitionEnforcer ppe(h.ctx, {});
  // Tenant 2 is screaming hot in SMem, but full mode must not let it displace
  // tenant 1 beyond its quota.
  for (int i = 0; i < 20; ++i)
    h.sampler.on_sampled_access(2, h.mem.pages_of(2)[0], AccessKind::kRead);
  const auto before = h.mem.workload_pages(1, Tier::kFMem);
  for (int i = 0; i < 10; ++i) {
    h.engine.begin_interval(milliseconds(10));
    ppe.on_tick();
  }
  EXPECT_EQ(h.mem.workload_pages(1, Tier::kFMem), before);
  EXPECT_EQ(h.mem.workload_pages(2, Tier::kFMem), 0u);
}

TEST(Ppe, LcOnlyModeLetsBeCompete) {
  PpeHarness h;
  h.add_tenant(0, true, 10, kTierOnly(Tier::kSMem));
  h.add_tenant(1, false, 60, kFastestFirst);
  h.add_tenant(2, false, 60, kTierOnly(Tier::kSMem));
  PartitionEnforcer::Options opt;
  opt.isolate_be = false;
  PartitionEnforcer ppe(h.ctx, opt);
  for (int i = 0; i < 20; ++i)
    h.sampler.on_sampled_access(2, h.mem.pages_of(2)[0], AccessKind::kRead);
  for (int i = 0; i < 10; ++i) {
    h.engine.begin_interval(milliseconds(10));
    ppe.on_tick();
  }
  EXPECT_EQ(h.mem.workload_pages(2, Tier::kFMem), 1u);  // the hot page moved in
}

TEST(Ppe, AgeHalvesHistogramsOnItsCadence) {
  PpeHarness h;
  h.add_tenant(0, true, 10, kTierOnly(Tier::kSMem));
  PartitionEnforcer::Options opt;
  opt.age_every_intervals = 3;
  PartitionEnforcer ppe(h.ctx, opt);
  const PageId p = h.mem.pages_of(0)[0];
  for (int i = 0; i < 8; ++i) h.sampler.on_sampled_access(0, p, AccessKind::kRead);
  EXPECT_EQ(ppe.histogram(0).count_of(p), 8u);
  ppe.age_histograms();  // interval 1 of 3: no halving yet
  ppe.age_histograms();  // interval 2 of 3
  EXPECT_EQ(ppe.histogram(0).count_of(p), 8u);
  ppe.age_histograms();  // interval 3: halving fires
  EXPECT_EQ(ppe.histogram(0).count_of(p), 4u);
}

TEST(Ppe, RejectsMismatchedPlan) {
  PpeHarness h;
  h.add_tenant(0, true, 10, kTierOnly(Tier::kSMem));
  PartitionEnforcer ppe(h.ctx, {});
  EXPECT_THROW(ppe.set_plan({1, 2, 3}), std::invalid_argument);
}

// ------------------------------------------------------------------ PP-M ----

PartitionPolicyMaker::Options ppm_opt(bool guard = true) {
  PartitionPolicyMaker::Options o;
  o.slo_guard = guard;
  o.manage_be = true;
  o.sac.min_buffer_for_update = 1000000;  // keep tests deterministic: no training
  return o;
}

IntervalCounters counters(std::uint64_t fmem, std::uint64_t smem) {
  IntervalCounters c;
  c.fmem_accesses = fmem;
  c.smem_accesses = smem;
  c.reads = fmem + smem;
  return c;
}

TEST(Ppm, GuardForcesFullExpansionOnViolation) {
  PartitionPolicyMaker ppm(1000, 200, milliseconds(20), {linear_model(0.001, 2000)},
                           ppm_opt());
  // First decision primes state; second carries a violating p99.
  ppm.decide(100, 0.1, counters(10, 90), milliseconds(1));
  const auto d = ppm.decide(100, 0.1, counters(10, 90), milliseconds(50));
  EXPECT_EQ(d.lc_pages, 300u);  // current + full +alpha (200)
}

TEST(Ppm, GuardHoldVetoesShrinkNearSlo) {
  PartitionPolicyMaker ppm(1000, 200, milliseconds(20), {linear_model(0.001, 2000)},
                           ppm_opt());
  ppm.decide(500, 0.5, counters(50, 50), milliseconds(1));
  // p99 at 60% of SLO: shrink must be vetoed regardless of the agent's whim.
  const auto d = ppm.decide(500, 0.5, counters(50, 50), milliseconds(12));
  EXPECT_GE(d.lc_pages, 500u);
}

TEST(Ppm, ShrinkIsRateLimited) {
  auto opt = ppm_opt(/*guard=*/false);
  opt.max_shrink_fraction = 0.1;
  PartitionPolicyMaker ppm(1000, 200, milliseconds(20), {linear_model(0.001, 2000)}, opt);
  ppm.decide(500, 0.5, counters(100, 0), milliseconds(1));
  for (int i = 0; i < 20; ++i) {
    const auto d = ppm.decide(500, 0.5, counters(100, 0), milliseconds(1));
    EXPECT_GE(d.lc_pages, 480u);  // at most 0.1 * 200 pages released per step
  }
}

TEST(Ppm, ReservationStaysWithinBounds) {
  auto opt = ppm_opt();
  opt.min_lc_pages = 50;
  PartitionPolicyMaker ppm(1000, 5000, milliseconds(20), {linear_model(0.001, 2000)}, opt);
  for (int i = 0; i < 30; ++i) {
    const auto d = ppm.decide(i % 2 ? 50 : 1000, 0.5, counters(50, 50),
                              i % 3 ? milliseconds(1) : milliseconds(100));
    EXPECT_GE(d.lc_pages, 50u);
    EXPECT_LE(d.lc_pages, 1000u);
    EXPECT_LE(d.lc_pages + [&] {
      std::uint64_t s = 0;
      for (auto b : d.be_pages) s += b;
      return s;
    }(), 1000u);
  }
}

TEST(Ppm, RewardFollowsEq2) {
  PartitionPolicyMaker ppm(1000, 200, milliseconds(20), {}, ppm_opt());
  ppm.decide(100, 0.25, counters(10, 10), milliseconds(1));
  ppm.decide(100, 0.25, counters(10, 10), milliseconds(1));   // compliant
  ppm.decide(100, 0.40, counters(10, 10), milliseconds(99));  // violation
  const auto& rewards = ppm.reward_history();
  ASSERT_EQ(rewards.size(), 2u);
  EXPECT_DOUBLE_EQ(rewards[0], 1.0 - 0.25);
  EXPECT_DOUBLE_EQ(rewards[1], PartitionPolicyMaker::Options{}.violation_penalty);
}

TEST(Ppm, BeSplitSumsToRemainder) {
  PartitionPolicyMaker ppm(1000, 100, milliseconds(20),
                           {linear_model(0.001, 2000), linear_model(0.0005, 2000)},
                           ppm_opt());
  const auto d = ppm.decide(300, 0.3, counters(10, 10), milliseconds(1));
  std::uint64_t sum = 0;
  for (auto b : d.be_pages) sum += b;
  EXPECT_EQ(sum, 1000u - d.lc_pages);
}

TEST(Ppm, LcOnlySkipsBeSplit) {
  auto opt = ppm_opt();
  opt.manage_be = false;
  PartitionPolicyMaker ppm(1000, 100, milliseconds(20), {linear_model(0.001, 2000)}, opt);
  const auto d = ppm.decide(300, 0.3, counters(10, 10), milliseconds(1));
  EXPECT_TRUE(d.be_pages.empty());
}

}  // namespace
}  // namespace mtat

namespace mtat {
namespace {

// ---------------------------------------------- joint-objective annealing ----

TEST(SaPartitioner, JointObjectiveSeesCoupledAllocations) {
  // Coupled metric: workload 0's performance *degrades* as workload 1 gets
  // pages (e.g. shared-bandwidth pressure). The per-workload API cannot
  // express this; the joint API must still optimize it.
  Rng rng(71);
  const auto joint = [](const std::vector<std::uint64_t>& alloc) {
    const double np0 = 0.3 + 1e-3 * static_cast<double>(alloc[0]) -
                       5e-4 * static_cast<double>(alloc[1]);
    const double np1 = 0.3 + 1e-3 * static_cast<double>(alloc[1]);
    return std::min(np0, np1);
  };
  SAOptions opt;
  opt.unit_pages = 10;
  opt.max_iterations = 6000;
  const SAResult r = anneal_partition(joint, {1000, 1000}, 600, opt, rng);
  // Optimum gives workload 0 substantially more than an uncoupled max-min
  // would (its NP is taxed by 1's allocation). Brute-force for reference:
  double best = 0;
  std::uint64_t best_a = 0;
  for (std::uint64_t a = 0; a <= 600; a += 10) {
    const double v = joint({a, 600 - a});
    if (v > best) {
      best = v;
      best_a = a;
    }
  }
  EXPECT_GE(r.objective, best * 0.97);
  EXPECT_NEAR(static_cast<double>(r.allocation[0]), static_cast<double>(best_a), 60.0);
}

TEST(SaPartitioner, JointObjectiveRespectsCaps) {
  Rng rng(72);
  SAOptions opt;
  opt.unit_pages = 5;
  const auto sum_np = [](const std::vector<std::uint64_t>& a) {
    return 1e-3 * static_cast<double>(a[0]);  // only workload 0 matters
  };
  const SAResult r = anneal_partition(sum_np, {50, 1000}, 600, opt, rng);
  EXPECT_LE(r.allocation[0], 55u);  // capped despite being the only useful slot
  EXPECT_THROW(anneal_partition(sum_np, {}, 10, opt, rng), std::invalid_argument);
}

}  // namespace
}  // namespace mtat

namespace mtat {
namespace {

TEST(Ppe, BandwidthBackoffPausesRefinement) {
  // §7 extension: with FMem's contention factor above the backoff threshold,
  // refinement must stop promoting into the saturated tier; below it, the
  // same exchange fires.
  PpeHarness h;
  h.add_tenant(0, true, 100, kFastestFirst);  // 64 FMem + 36 SMem
  PartitionEnforcer::Options opt;
  opt.bandwidth_backoff_factor = 1.5;
  PartitionEnforcer ppe(h.ctx, opt);
  const PageId hot = h.mem.pages_of(0)[80];
  for (int i = 0; i < 8; ++i) h.sampler.on_sampled_access(0, hot, AccessKind::kRead);
  h.mem.set_contention_factor(Tier::kFMem, 2.0);  // saturated
  h.engine.begin_interval(milliseconds(10));
  ppe.on_tick();
  EXPECT_EQ(h.mem.tier_of(hot), Tier::kSMem);  // promotion held back
  h.mem.set_contention_factor(Tier::kFMem, 1.0);  // pressure gone
  h.engine.begin_interval(milliseconds(10));
  ppe.on_tick();
  EXPECT_EQ(h.mem.tier_of(hot), Tier::kFMem);
}

}  // namespace
}  // namespace mtat
