// Tests for the multi-LC extension: per-tenant reservations, proportional
// scale-down, BE residual split, and guard behaviour per tenant.
#include <gtest/gtest.h>

#include "core/multi_lc_mtat.h"
#include "tier_aliases.h"

namespace mtat {
namespace {

struct Harness {
  TieredMemory mem;
  MigrationEngine engine;
  AccessSampler sampler;
  PolicyContext ctx;

  Harness()
      : mem([] {
          TieredMemory::Config c =
              TieredMemory::Config::two_tier(1000, 8000);
          return c;
        }()),
        engine(mem, {1e12, {}}),
        sampler(mem) {
    ctx.mem = &mem;
    ctx.engine = &engine;
    ctx.sampler = &sampler;
    mem.allocate(0, 1500, kTierOnly(Tier::kSMem));  // LC A
    mem.allocate(1, 1500, kTierOnly(Tier::kSMem));  // LC B
    mem.allocate(2, 1500, kFastestFirst); // BE
    ctx.tenants = {{0, true}, {1, true}, {2, false}};
  }

  MultiLcMtatPolicy::Options opts() {
    MultiLcMtatPolicy::Options o;
    o.ppm.sac.min_buffer_for_update = 1000000;  // deterministic: no training
    return o;
  }

  std::vector<MultiLcMtatPolicy::LcSpec> specs() {
    return {{0, milliseconds(20)}, {1, milliseconds(20)}};
  }

  std::vector<BEPerfModel> be_models() {
    return {BEPerfModel{[](std::uint64_t p) { return 0.4 + 1e-4 * static_cast<double>(p); },
                        1500}};
  }

  void settle(MultiLcMtatPolicy& p, int ticks = 50) {
    for (int i = 0; i < ticks; ++i) {
      engine.begin_interval(milliseconds(10));
      p.on_tick(0, milliseconds(10));
    }
  }
};

TEST(MultiLcMtat, RejectsEmptyOrBadSpecs) {
  Harness h;
  EXPECT_THROW(MultiLcMtatPolicy(h.ctx, seconds(1), {}, h.be_models(), h.opts()),
               std::invalid_argument);
  EXPECT_THROW(
      MultiLcMtatPolicy(h.ctx, seconds(1), {{9, milliseconds(1)}}, h.be_models(), h.opts()),
      std::invalid_argument);
}

TEST(MultiLcMtat, ViolatingTenantExpandsIndependently) {
  Harness h;
  MultiLcMtatPolicy p(h.ctx, seconds(1), h.specs(), h.be_models(), h.opts());
  // Prime both agents, then report a violation for LC B only.
  p.on_interval(0, seconds(1), milliseconds(1));
  p.report_lc_p99(1, milliseconds(1));
  p.on_interval(0, seconds(1), milliseconds(1));
  p.report_lc_p99(1, milliseconds(100));  // B violates
  p.on_interval(0, seconds(1), milliseconds(1));  // A compliant
  // B's guard demands the maximum expansion; whatever A's (untrained) agent
  // asked for is at most that, and proportional scale-down preserves the
  // ordering. The plan must also stay feasible.
  EXPECT_GE(p.lc_quota(1), p.lc_quota(0));
  EXPECT_LE(p.lc_quota(0) + p.lc_quota(1), 1000u);
  EXPECT_GT(p.lc_quota(1), 0u);
}

TEST(MultiLcMtat, CombinedDemandIsScaledToCapacity) {
  Harness h;
  MultiLcMtatPolicy p(h.ctx, seconds(1), h.specs(), h.be_models(), h.opts());
  // Drive both tenants into violation repeatedly: both guards demand full
  // capacity; the scale-down must keep the plan feasible.
  for (int round = 0; round < 5; ++round) {
    p.report_lc_p99(0, milliseconds(100));
    p.report_lc_p99(1, milliseconds(100));
    p.on_interval(0, seconds(1), milliseconds(100));
    h.settle(p);
  }
  const std::uint64_t total = p.lc_quota(0) + p.lc_quota(1);
  EXPECT_LE(total, 1000u);
  EXPECT_GT(total, 900u);  // nearly everything reserved for the two LCs
  // And both received comparable shares (proportional, not winner-take-all).
  const double ratio = static_cast<double>(p.lc_quota(0)) /
                       static_cast<double>(std::max<std::uint64_t>(1, p.lc_quota(1)));
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(MultiLcMtat, ResidualGoesToBe) {
  Harness h;
  MultiLcMtatPolicy p(h.ctx, seconds(1), h.specs(), h.be_models(), h.opts());
  p.on_interval(0, seconds(1), milliseconds(1));  // both near-idle
  h.settle(p);
  // BE quota = capacity - LC reservations (single BE model takes it all).
  const std::uint64_t be_quota = p.ppe().quota(2);
  EXPECT_EQ(be_quota + p.lc_quota(0) + p.lc_quota(1), 1000u);
  EXPECT_GT(be_quota, 0u);
}

TEST(MultiLcMtat, EnforcementReachesQuotas) {
  Harness h;
  MultiLcMtatPolicy p(h.ctx, seconds(1), h.specs(), h.be_models(), h.opts());
  p.report_lc_p99(0, milliseconds(100));  // A violates -> big reservation
  p.on_interval(0, seconds(1), milliseconds(100));
  h.settle(p, 200);
  EXPECT_EQ(h.mem.workload_pages(0, Tier::kFMem), p.lc_quota(0));
  EXPECT_EQ(h.mem.workload_pages(1, Tier::kFMem), p.lc_quota(1));
}

}  // namespace
}  // namespace mtat
