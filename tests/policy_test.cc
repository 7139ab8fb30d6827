// Tests for the baseline policies: MEMTIS-like displacement behaviour (the
// §2.2 phenomenon), TPP-like fault-driven promotion and watermark demotion,
// and the static pins.
#include <gtest/gtest.h>

#include "policy/memtis_policy.h"
#include "policy/memtis_hp_policy.h"
#include "policy/damon_policy.h"
#include "policy/static_policy.h"
#include "policy/tpp_policy.h"
#include "tier_aliases.h"

namespace mtat {
namespace {

struct Harness {
  TieredMemory mem;
  MigrationEngine engine;
  AccessSampler sampler;
  PolicyContext ctx;

  explicit Harness(std::uint64_t fmem = 64, std::uint64_t smem = 512)
      : mem([&] {
          TieredMemory::Config c =
              TieredMemory::Config::two_tier(fmem, smem);
          return c;
        }()),
        engine(mem, {1e12, {}}),
        sampler(mem) {
    ctx.mem = &mem;
    ctx.engine = &engine;
    ctx.sampler = &sampler;
  }

  void add_tenant(WorkloadId id, bool lc, std::uint64_t pages, AllocPolicy alloc) {
    mem.allocate(id, pages, alloc);
    ctx.tenants.push_back(TenantInfo{id, lc});
  }

  void tick(TieringPolicy& p) {
    engine.begin_interval(milliseconds(10));
    p.on_tick(0, milliseconds(10));
  }
};

// --------------------------------------------------------------- MEMTIS ----

TEST(Memtis, HotBePagesDisplaceColdLcPages) {
  // The paper's core phenomenon: LC fills FMem first, BE pages become hot,
  // frequency-blind management swaps the idle LC data out.
  Harness h;
  h.add_tenant(0, true, 64, kFastestFirst);   // LC owns all of FMem
  h.add_tenant(1, false, 200, kTierOnly(Tier::kSMem));  // BE in SMem
  MemtisPolicy memtis(h.ctx);
  const auto& be_pages = h.mem.pages_of(1);
  for (int round = 0; round < 4; ++round)
    for (int i = 0; i < 64; ++i)
      h.sampler.on_sampled_access(1, be_pages[static_cast<std::size_t>(i)], AccessKind::kRead);
  h.tick(memtis);
  EXPECT_EQ(h.mem.workload_pages(1, Tier::kFMem), 64u);
  EXPECT_EQ(h.mem.workload_pages(0, Tier::kFMem), 0u);
}

TEST(Memtis, DoesNotSwapEquallyColdPages) {
  Harness h;
  h.add_tenant(0, true, 64, kFastestFirst);
  h.add_tenant(1, false, 64, kTierOnly(Tier::kSMem));
  MemtisPolicy memtis(h.ctx);
  h.tick(memtis);  // nobody is hot: nothing should move
  EXPECT_EQ(h.mem.workload_pages(0, Tier::kFMem), 64u);
  EXPECT_EQ(h.mem.total_migrations(), 0u);
}

TEST(Memtis, FillsFreeFMemWithHottestPages) {
  Harness h;
  h.add_tenant(0, false, 100, kTierOnly(Tier::kSMem));
  MemtisPolicy memtis(h.ctx);
  const auto& pages = h.mem.pages_of(0);
  for (int i = 0; i < 10; ++i) h.sampler.on_sampled_access(0, pages[5], AccessKind::kRead);
  h.tick(memtis);
  EXPECT_EQ(h.mem.tier_of(pages[5]), Tier::kFMem);
}

TEST(Memtis, CoolingHalvesCounts) {
  Harness h;
  h.add_tenant(0, false, 10, kTierOnly(Tier::kSMem));
  MemtisPolicy::Options opt;
  opt.cooling_period_intervals = 2;
  MemtisPolicy memtis(h.ctx, opt);
  const PageId p = h.mem.pages_of(0)[0];
  for (int i = 0; i < 8; ++i) h.sampler.on_sampled_access(0, p, AccessKind::kRead);
  memtis.on_interval(0, seconds(1), 0);  // 1 of 2: no cooling yet
  EXPECT_EQ(memtis.histogram().count_of(p), 8u);
  memtis.on_interval(0, seconds(1), 0);  // cooling fires
  EXPECT_EQ(memtis.histogram().count_of(p), 4u);
}

TEST(Memtis, RespectsMigrationBudget) {
  Harness h;
  h.mem.allocate(0, 64, kFastestFirst);
  h.ctx.tenants.push_back(TenantInfo{0, true});
  h.add_tenant(1, false, 200, kTierOnly(Tier::kSMem));
  MemtisPolicy memtis(h.ctx);
  const auto& be = h.mem.pages_of(1);
  for (int r = 0; r < 4; ++r)
    for (int i = 0; i < 64; ++i)
      h.sampler.on_sampled_access(1, be[static_cast<std::size_t>(i)], AccessKind::kRead);
  // Budget of 8 pages -> at most 4 exchanges this tick.
  MigrationEngine tight(h.mem, {static_cast<double>(kPageSize) * 8, {}});
  h.ctx.engine = &tight;
  MemtisPolicy throttled(h.ctx);
  for (int r = 0; r < 4; ++r)
    for (int i = 0; i < 64; ++i)
      h.sampler.on_sampled_access(1, be[static_cast<std::size_t>(i)], AccessKind::kRead);
  tight.begin_interval(seconds(1));
  throttled.on_tick(0, seconds(1));
  EXPECT_LE(tight.pages_moved_this_interval(), 8u);
}

// ------------------------------------------------------------------ TPP ----

TEST(Tpp, TwoTouchPromotes) {
  Harness h;
  h.add_tenant(0, false, 100, kTierOnly(Tier::kSMem));
  TppPolicy tpp(h.ctx);
  const PageId p = h.mem.pages_of(0)[3];
  h.sampler.on_sampled_access(0, p, AccessKind::kRead);  // first touch: shadow list
  h.tick(tpp);
  EXPECT_EQ(h.mem.tier_of(p), Tier::kSMem);  // one touch is not enough
  h.sampler.on_sampled_access(0, p, AccessKind::kRead);  // second touch: fault
  h.tick(tpp);
  EXPECT_EQ(h.mem.tier_of(p), Tier::kFMem);
}

TEST(Tpp, SecondTouchOutsideWindowDoesNotPromote) {
  Harness h;
  h.add_tenant(0, false, 100, kTierOnly(Tier::kSMem));
  TppPolicy::Options opt;
  opt.active_window_ticks = 2;
  TppPolicy tpp(h.ctx, opt);
  const PageId p = h.mem.pages_of(0)[0];
  h.sampler.on_sampled_access(0, p, AccessKind::kRead);
  for (int i = 0; i < 5; ++i) h.tick(tpp);  // let the window lapse
  h.sampler.on_sampled_access(0, p, AccessKind::kRead);
  h.tick(tpp);
  EXPECT_EQ(h.mem.tier_of(p), Tier::kSMem);
}

TEST(Tpp, WatermarkDemotionKeepsHeadroom) {
  Harness h(100, 1000);
  h.add_tenant(0, false, 100, kTierOnly(Tier::kFMem));  // FMem completely full
  TppPolicy::Options opt;
  opt.free_watermark = 0.10;
  TppPolicy tpp(h.ctx, opt);
  for (int i = 0; i < 10; ++i) h.tick(tpp);
  EXPECT_GE(h.mem.free_pages(Tier::kFMem), 10u);
}

TEST(Tpp, ReferencedPagesSurviveTheClock) {
  Harness h(100, 1000);
  h.add_tenant(0, false, 100, kTierOnly(Tier::kFMem));
  TppPolicy::Options opt;
  opt.free_watermark = 0.05;
  TppPolicy tpp(h.ctx, opt);
  // Keep pages 0..49 referenced every tick; victims must come from 50..99.
  const auto& pages = h.mem.pages_of(0);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i)
      h.sampler.on_sampled_access(0, pages[static_cast<std::size_t>(i)], AccessKind::kRead);
    h.tick(tpp);
  }
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(h.mem.tier_of(pages[static_cast<std::size_t>(i)]), Tier::kFMem) << i;
}

TEST(Tpp, PromotionWaitsForFreeHeadroom) {
  Harness h(10, 100);
  h.add_tenant(0, false, 10, kTierOnly(Tier::kFMem));
  h.add_tenant(1, false, 50, kTierOnly(Tier::kSMem));
  TppPolicy tpp(h.ctx);
  const PageId hot = h.mem.pages_of(1)[0];
  h.sampler.on_sampled_access(1, hot, AccessKind::kRead);
  h.sampler.on_sampled_access(1, hot, AccessKind::kRead);
  // Tick: watermark demotion frees a slot (tenant 0's pages are unreferenced),
  // then the queued promotion lands.
  for (int i = 0; i < 3; ++i) h.tick(tpp);
  EXPECT_EQ(h.mem.tier_of(hot), Tier::kFMem);
}

// --------------------------------------------------------------- static ----

TEST(StaticPolicy, NamesAndNoops) {
  StaticPolicy f(StaticPolicy::Kind::kFMemAll), s(StaticPolicy::Kind::kSMemAll);
  EXPECT_EQ(f.name(), "fmem_all");
  EXPECT_EQ(s.name(), "smem_all");
  f.on_tick(0, 1);
  s.on_interval(0, 1, 0);  // must not crash or move anything
}

}  // namespace
}  // namespace mtat

namespace mtat {
namespace {

// ----------------------------------------------------------------- DAMON ----

TEST(Damon, PromotesDenseRegionsWholesale) {
  Harness h(64, 1024);
  h.add_tenant(0, false, 512, kTierOnly(Tier::kSMem));
  DamonPolicy damon(h.ctx);
  // Hammer a 16-page range; after an aggregation the policy should pull the
  // covering region into FMem.
  Rng rng(3);
  for (int w = 0; w < 6; ++w) {
    for (int i = 0; i < 4000; ++i)
      h.sampler.on_sampled_access(0, h.mem.pages_of(0)[100 + rng.next_below(16)],
                                  AccessKind::kRead);
    damon.on_interval(0, seconds(1), 0);
    for (int t = 0; t < 10; ++t) h.tick(damon);
  }
  int resident = 0;
  for (int i = 0; i < 16; ++i)
    resident += h.mem.tier_of(h.mem.pages_of(0)[static_cast<std::size_t>(100 + i)]) ==
                Tier::kFMem;
  EXPECT_GE(resident, 14);  // the hot range lives in FMem (region edges may spill)
}

TEST(Damon, SparseLcLosesToDenseBe) {
  // The failure mode this baseline exists to demonstrate: an LC tenant whose
  // accesses are spread thin measures low region density everywhere and is
  // displaced by a BE tenant with a dense core.
  Harness h(64, 2048);
  h.add_tenant(0, true, 256, kFastestFirst);   // LC holds FMem first
  h.add_tenant(1, false, 256, kTierOnly(Tier::kSMem));
  DamonPolicy damon(h.ctx);
  Rng rng(5);
  for (int w = 0; w < 8; ++w) {
    for (int i = 0; i < 200; ++i)  // LC: sparse, uniform
      h.sampler.on_sampled_access(0, h.mem.pages_of(0)[rng.next_below(256)],
                                  AccessKind::kRead);
    for (int i = 0; i < 4000; ++i)  // BE: dense 32-page core
      h.sampler.on_sampled_access(1, h.mem.pages_of(1)[rng.next_below(32)],
                                  AccessKind::kRead);
    damon.on_interval(0, seconds(1), 0);
    for (int t = 0; t < 10; ++t) h.tick(damon);
  }
  EXPECT_GT(h.mem.workload_pages(1, Tier::kFMem), 24u);
  EXPECT_LT(h.mem.fmem_usage_ratio(0), 0.2);
}

}  // namespace
}  // namespace mtat

namespace mtat {
namespace {

// ------------------------------------------------------------- MEMTIS-HP ----

TEST(MemtisHp, WellUtilizedHotBlockPromotesWholesale) {
  Harness h(2048, 8192);
  h.add_tenant(0, false, 512, kFastestFirst);   // fills 1 block's worth
  h.add_tenant(1, false, 2048, kTierOnly(Tier::kSMem));   // 4 blocks in SMem
  MemtisHpPolicy::Options opt;
  opt.util_threshold = 0.5;
  MemtisHpPolicy hp(h.ctx, opt);
  // Touch >half the frames of tenant 1's second block, once each: no frame
  // is individually hot, but the block aggregate is.
  const auto& pages = h.mem.pages_of(1);
  const std::size_t block_start = 512 - (pages[0] % 512);  // first aligned block
  for (std::size_t i = 0; i < 400; ++i)
    h.sampler.on_sampled_access(1, pages[block_start + i], AccessKind::kRead);
  hp.on_interval(0, seconds(1), 0);
  for (int t = 0; t < 5; ++t) h.tick(hp);
  EXPECT_GE(hp.block_promotions(), 1u);
  // Every frame of that block — touched or not — must now be in FMem.
  std::size_t resident = 0;
  for (std::size_t i = 0; i < 512 && block_start + i < pages.size(); ++i)
    resident += h.mem.tier_of(pages[block_start + i]) == Tier::kFMem;
  EXPECT_EQ(resident, 512u);
}

TEST(MemtisHp, SkewedBlockIsSplitNotBulkMoved) {
  Harness h(2048, 8192);
  h.add_tenant(0, false, 2048, kTierOnly(Tier::kSMem));
  MemtisHpPolicy::Options opt;
  opt.util_threshold = 0.5;
  MemtisHpPolicy hp(h.ctx, opt);
  // Hammer 10 frames of one block hard: high count, low utilization.
  const auto& pages = h.mem.pages_of(0);
  for (int rep = 0; rep < 50; ++rep)
    for (std::size_t i = 0; i < 10; ++i)
      h.sampler.on_sampled_access(0, pages[600 + i], AccessKind::kRead);
  hp.on_interval(0, seconds(1), 0);
  for (int t = 0; t < 5; ++t) h.tick(hp);
  EXPECT_EQ(hp.block_promotions(), 0u);  // not huge-managed
  // ...but the hot frames themselves moved via the page-granular path.
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(h.mem.tier_of(pages[600 + i]), Tier::kFMem) << i;
}

TEST(MemtisHp, WindowStateResetsEachInterval) {
  Harness h(2048, 8192);
  h.add_tenant(0, false, 1024, kTierOnly(Tier::kSMem));
  MemtisHpPolicy hp(h.ctx);
  for (std::size_t i = 0; i < 300; ++i)
    h.sampler.on_sampled_access(0, h.mem.pages_of(0)[i], AccessKind::kRead);
  hp.on_interval(0, seconds(1), 0);
  for (int t = 0; t < 5; ++t) h.tick(hp);
  const auto bulk_after_first = hp.block_promotions();
  // A silent window must schedule no further block work.
  hp.on_interval(0, seconds(1), 0);
  for (int t = 0; t < 5; ++t) h.tick(hp);
  EXPECT_EQ(hp.block_promotions(), bulk_after_first);
}

}  // namespace
}  // namespace mtat
