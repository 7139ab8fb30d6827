// Tests for the tiered-memory substrate: page allocation, placement
// primitives, migration budgets, and the address-space translation layer.
#include <gtest/gtest.h>

#include <functional>

#include "common/rng.h"
#include "mem/address_space.h"
#include "mem/migration_engine.h"
#include "mem/tiered_memory.h"

namespace mtat {
namespace {

TieredMemory::Config small_config(std::uint64_t fmem = 16, std::uint64_t smem = 64) {
  TieredMemory::Config c =
      TieredMemory::Config::two_tier(fmem, smem);
  return c;
}

// -------------------------------------------------------- TieredMemory ----

TEST(TieredMemory, RejectsDegenerateConfigs) {
  TieredMemory::Config c;  // no tiers at all
  EXPECT_THROW(TieredMemory{c}, std::invalid_argument);
  c = TieredMemory::Config::two_tier(0, 0);  // zero capacity
  EXPECT_THROW(TieredMemory{c}, std::invalid_argument);
  c = TieredMemory::Config::two_tier(1, 1, /*fmem_latency=*/300,
                                     /*smem_latency=*/100);  // inverted tiers
  EXPECT_THROW(TieredMemory{c}, std::invalid_argument);
  c = TieredMemory::Config::two_tier(1, 1);
  c.tiers.push_back(c.tiers.back());  // one tier per slot up to the cap...
  for (TierId t = 3; t < kMaxTiers; ++t) c.tiers.push_back(c.tiers.back());
  EXPECT_NO_THROW(TieredMemory{c});
  c.tiers.push_back(c.tiers.back());  // ...and one past it
  EXPECT_THROW(TieredMemory{c}, std::invalid_argument);
}

TEST(TieredMemory, FMemFirstFillsFastTierThenSpills) {
  TieredMemory mem(small_config());
  const auto pages = mem.allocate(0, 20, kFastestFirst);
  EXPECT_EQ(pages.size(), 20u);
  EXPECT_EQ(mem.workload_pages(0, Tier::kFMem), 16u);
  EXPECT_EQ(mem.workload_pages(0, Tier::kSMem), 4u);
  EXPECT_EQ(mem.free_pages(Tier::kFMem), 0u);
}

TEST(TieredMemory, SMemOnlyNeverTouchesFMem) {
  TieredMemory mem(small_config());
  mem.allocate(1, 10, kTierOnly(Tier::kSMem));
  EXPECT_EQ(mem.workload_pages(1, Tier::kFMem), 0u);
  EXPECT_EQ(mem.used(Tier::kFMem), 0u);
}

TEST(TieredMemory, FMemOnlyThrowsWhenFull) {
  TieredMemory mem(small_config());
  mem.allocate(0, 10, kTierOnly(Tier::kFMem));
  EXPECT_THROW(mem.allocate(1, 10, kTierOnly(Tier::kFMem)), std::runtime_error);
}

TEST(TieredMemory, AllocationBeyondTotalCapacityThrows) {
  TieredMemory mem(small_config(4, 4));
  EXPECT_THROW(mem.allocate(0, 9, kFastestFirst), std::runtime_error);
}

TEST(TieredMemory, TierAndOwnerQueries) {
  TieredMemory mem(small_config());
  const auto a = mem.allocate(2, 3, kFastestFirst);
  EXPECT_EQ(mem.owner_of(a[0]), 2);
  EXPECT_EQ(mem.tier_of(a[0]), Tier::kFMem);
  EXPECT_THROW(mem.tier_of(999), std::out_of_range);
}

TEST(TieredMemory, LatencyPerTier) {
  TieredMemory mem(small_config());
  EXPECT_EQ(mem.latency(Tier::kFMem), 73u);
  EXPECT_EQ(mem.latency(Tier::kSMem), 202u);
  const auto p = mem.allocate(0, 1, kTierOnly(Tier::kSMem));
  EXPECT_EQ(mem.access_latency(p[0]), 202u);
}

TEST(TieredMemory, MigrateMovesAndCounts) {
  TieredMemory mem(small_config());
  const auto p = mem.allocate(0, 1, kTierOnly(Tier::kSMem));
  EXPECT_TRUE(mem.migrate(p[0], Tier::kFMem));
  EXPECT_EQ(mem.tier_of(p[0]), Tier::kFMem);
  EXPECT_EQ(mem.total_migrations(), 1u);
  EXPECT_EQ(mem.bytes_migrated(), kPageSize);
  // No-op when already there.
  EXPECT_FALSE(mem.migrate(p[0], Tier::kFMem));
  EXPECT_EQ(mem.total_migrations(), 1u);
}

TEST(TieredMemory, MigrateFailsWhenDestinationFull) {
  TieredMemory mem(small_config(2, 8));
  mem.allocate(0, 2, kTierOnly(Tier::kFMem));
  const auto p = mem.allocate(1, 1, kTierOnly(Tier::kSMem));
  EXPECT_FALSE(mem.migrate(p[0], Tier::kFMem));
  EXPECT_EQ(mem.tier_of(p[0]), Tier::kSMem);
}

TEST(TieredMemory, ExchangeSwapsAcrossFullTiers) {
  TieredMemory mem(small_config(1, 1));
  const auto f = mem.allocate(0, 1, kTierOnly(Tier::kFMem));
  const auto s = mem.allocate(1, 1, kTierOnly(Tier::kSMem));
  mem.exchange(s[0], f[0]);
  EXPECT_EQ(mem.tier_of(s[0]), Tier::kFMem);
  EXPECT_EQ(mem.tier_of(f[0]), Tier::kSMem);
  EXPECT_EQ(mem.total_migrations(), 2u);
}

TEST(TieredMemory, ExchangeSameTierThrows) {
  TieredMemory mem(small_config());
  const auto p = mem.allocate(0, 2, kTierOnly(Tier::kSMem));
  EXPECT_THROW(mem.exchange(p[0], p[1]), std::logic_error);
}

TEST(TieredMemory, UsageRatioTracksPlacement) {
  TieredMemory mem(small_config(5, 100));
  mem.allocate(0, 10, kFastestFirst);
  EXPECT_DOUBLE_EQ(mem.fmem_usage_ratio(0), 0.5);
  mem.migrate(mem.pages_of(0)[0], Tier::kSMem);
  EXPECT_DOUBLE_EQ(mem.fmem_usage_ratio(0), 0.4);
}

/// Test adapter: a MigrationListener that forwards to a lambda.
struct FnListener : MigrationListener {
  std::function<void(PageId, TierId, TierId)> fn;
  explicit FnListener(std::function<void(PageId, TierId, TierId)> f) : fn(std::move(f)) {}
  void on_migration(PageId p, TierId from, TierId to) override { fn(p, from, to); }
};

TEST(TieredMemory, MigrationListenerFires) {
  TieredMemory mem(small_config());
  const auto p = mem.allocate(0, 1, kTierOnly(Tier::kSMem));
  int calls = 0;
  FnListener listener([&](PageId pid, TierId from, TierId to) {
    ++calls;
    EXPECT_EQ(pid, p[0]);
    EXPECT_EQ(from, Tier::kSMem);
    EXPECT_EQ(to, Tier::kFMem);
  });
  mem.add_migration_listener(&listener);
  mem.migrate(p[0], Tier::kFMem);
  EXPECT_EQ(calls, 1);
}

TEST(TieredMemory, CapacityConservationUnderRandomChurn) {
  TieredMemory mem(small_config(32, 128));
  mem.allocate(0, 64, kFastestFirst);
  mem.allocate(1, 64, kTierOnly(Tier::kSMem));
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const auto p = static_cast<PageId>(rng.next_below(mem.page_count()));
    mem.migrate(p, rng.next_bool(0.5) ? Tier::kFMem : Tier::kSMem);
    ASSERT_LE(mem.used(Tier::kFMem), mem.capacity(Tier::kFMem));
    ASSERT_LE(mem.used(Tier::kSMem), mem.capacity(Tier::kSMem));
    ASSERT_EQ(mem.used(Tier::kFMem) + mem.used(Tier::kSMem), mem.page_count());
  }
  // Per-workload tier counts must agree with a full recount.
  for (WorkloadId w : {WorkloadId{0}, WorkloadId{1}}) {
    std::uint64_t fmem = 0;
    for (PageId p : mem.pages_of(w)) fmem += mem.tier_of(p) == Tier::kFMem;
    EXPECT_EQ(mem.workload_pages(w, Tier::kFMem), fmem);
  }
}

TEST(TieredMemory, ContentionFactorScalesLatency) {
  TieredMemory mem(small_config());
  mem.set_contention_factor(Tier::kSMem, 2.5);
  EXPECT_EQ(mem.latency(Tier::kSMem), 505u);
  EXPECT_EQ(mem.base_latency(Tier::kSMem), 202u);
  EXPECT_EQ(mem.latency(Tier::kFMem), 73u);  // other tier untouched
  EXPECT_THROW(mem.set_contention_factor(Tier::kFMem, 0.5), std::invalid_argument);
}

TEST(TieredMemory, CachedLatencyFollowsEveryContentionChange) {
  TieredMemory mem(small_config());
  const auto contended = [](Duration base, double f) {
    return static_cast<Duration>(static_cast<double>(base) * f);
  };
  for (const double f : {1.0, 1.37, 2.0, 9.99, 1.0, 1.0000001}) {
    mem.set_contention_factor(Tier::kSMem, f);
    EXPECT_EQ(mem.latency(Tier::kSMem), contended(202, f)) << f;
    EXPECT_EQ(mem.access_latency(mem.allocate(0, 1, kTierOnly(Tier::kSMem))[0]),
              contended(202, f));
  }
  // A rejected factor leaves the cached latency as it was.
  EXPECT_THROW(mem.set_contention_factor(Tier::kSMem, 0.9), std::invalid_argument);
  EXPECT_EQ(mem.latency(Tier::kSMem), contended(202, 1.0000001));
}

// ------------------------------------------------------ MigrationEngine ----

TEST(MigrationEngine, RejectsNonPositiveBandwidth) {
  TieredMemory mem(small_config());
  EXPECT_THROW(MigrationEngine(mem, {0.0, {}}), std::invalid_argument);
}

TEST(MigrationEngine, BudgetMatchesBandwidth) {
  TieredMemory mem(small_config());
  MigrationEngine eng(mem, {static_cast<double>(kPageSize) * 100, {}});  // 100 pages/s
  eng.begin_interval(seconds(1));
  EXPECT_EQ(eng.budget_pages(), 100u);
  eng.begin_interval(milliseconds(10));
  EXPECT_EQ(eng.budget_pages(), 1u);
}

TEST(MigrationEngine, FractionalBudgetCarriesOver) {
  TieredMemory mem(small_config());
  MigrationEngine eng(mem, {static_cast<double>(kPageSize) * 10, {}});  // 10 pages/s
  std::uint64_t total = 0;
  for (int i = 0; i < 100; ++i) {  // 100 x 25 ms = 2.5 s -> 25 pages exactly
    eng.begin_interval(milliseconds(25));
    total += eng.budget_pages();
  }
  EXPECT_EQ(total, 25u);
}

TEST(MigrationEngine, Eq1BoundIsHalfBandwidth) {
  TieredMemory mem(small_config());
  MigrationEngine eng(mem, {static_cast<double>(kPageSize) * 1000, {}});
  EXPECT_EQ(eng.max_pages_per_direction(seconds(1)), 500u);
  EXPECT_EQ(eng.max_pages_per_direction(seconds(2)), 1000u);
}

TEST(MigrationEngine, MovesDebitBudget) {
  TieredMemory mem(small_config());
  const auto s = mem.allocate(0, 4, kTierOnly(Tier::kSMem));
  MigrationEngine eng(mem, {static_cast<double>(kPageSize) * 3, {}});
  eng.begin_interval(seconds(1));  // 3 pages of budget
  EXPECT_TRUE(eng.promote(s[0]));
  EXPECT_TRUE(eng.promote(s[1]));
  EXPECT_TRUE(eng.promote(s[2]));
  EXPECT_FALSE(eng.promote(s[3]));  // out of budget
  EXPECT_EQ(eng.pages_moved_this_interval(), 3u);
  EXPECT_EQ(eng.total_pages_moved(), 3u);
}

TEST(MigrationEngine, ExchangeCostsTwoPages) {
  TieredMemory mem(small_config(1, 4));
  const auto f = mem.allocate(0, 1, kTierOnly(Tier::kFMem));
  const auto s = mem.allocate(1, 2, kTierOnly(Tier::kSMem));
  MigrationEngine eng(mem, {static_cast<double>(kPageSize) * 3, {}});
  eng.begin_interval(seconds(1));
  EXPECT_TRUE(eng.exchange(s[0], f[0]));
  EXPECT_EQ(eng.budget_pages(), 1u);
  EXPECT_FALSE(eng.exchange(f[0], s[0]));  // needs 2, only 1 left
}

TEST(MigrationEngine, ExchangeValidatesTiers) {
  TieredMemory mem(small_config());
  const auto s = mem.allocate(0, 2, kTierOnly(Tier::kSMem));
  MigrationEngine eng(mem, {1e9, {}});
  eng.begin_interval(seconds(1));
  EXPECT_FALSE(eng.exchange(s[0], s[1]));  // demote target not in FMem
}

TEST(MigrationEngine, DemoteSymmetric) {
  TieredMemory mem(small_config());
  const auto f = mem.allocate(0, 1, kTierOnly(Tier::kFMem));
  MigrationEngine eng(mem, {1e9, {}});
  eng.begin_interval(seconds(1));
  EXPECT_TRUE(eng.demote(f[0]));
  EXPECT_EQ(mem.tier_of(f[0]), Tier::kSMem);
}

// --------------------------------------------------------- AddressSpace ----

TEST(AddressSpace, RejectsZeroSize) {
  TieredMemory mem(small_config());
  EXPECT_THROW(AddressSpace(mem, 0, 0, kTierOnly(Tier::kSMem)), std::invalid_argument);
}

TEST(AddressSpace, TranslationIsPageGranular) {
  TieredMemory mem(small_config(16, 64));
  AddressSpace space(mem, 0, 3 * kPageSize, kTierOnly(Tier::kSMem));
  EXPECT_EQ(space.num_pages(), 3u);
  EXPECT_EQ(space.page_at(0), space.page_at(kPageSize - 1));
  EXPECT_NE(space.page_at(0), space.page_at(kPageSize));
  EXPECT_THROW(space.page_at(3 * kPageSize), std::out_of_range);
}

TEST(AddressSpace, AccessChargesTierLatency) {
  TieredMemory mem(small_config(1, 64));
  AddressSpace space(mem, 0, 2 * kPageSize, kFastestFirst);
  EXPECT_EQ(space.access(0), 73u);           // page 0 in FMem
  EXPECT_EQ(space.access(kPageSize), 202u);  // page 1 spilled to SMem
}

TEST(AddressSpace, AccessPageNScalesLatency) {
  TieredMemory mem(small_config(0, 64));
  AddressSpace space(mem, 0, kPageSize, kTierOnly(Tier::kSMem));
  EXPECT_EQ(space.access_page_n(0, 10), 2020u);
  EXPECT_EQ(space.total_accesses(), 10u);
}

TEST(AddressSpace, RangeAccessTouchesOverlappingPages) {
  TieredMemory mem(small_config(0, 64));
  AddressSpace space(mem, 0, 4 * kPageSize, kTierOnly(Tier::kSMem));
  // Range spanning two pages charges both.
  EXPECT_EQ(space.access_range(kPageSize - 10, 20), 2 * 202u);
  // Zero-length range touches the single containing page.
  EXPECT_EQ(space.access_range(0, 0), 202u);
}

class CountingObserver : public AccessObserver {
 public:
  int count = 0;
  WorkloadId last_w = kInvalidWorkload;
  void on_sampled_access(WorkloadId w, PageId, AccessKind) override {
    ++count;
    last_w = w;
  }
};

TEST(AddressSpace, SamplingPeriodThins) {
  TieredMemory mem(small_config(0, 64));
  AddressSpace space(mem, 3, 8 * kPageSize, kTierOnly(Tier::kSMem), /*sample_period=*/4);
  CountingObserver obs;
  space.set_observer(&obs);
  for (int i = 0; i < 100; ++i) space.access(0);
  EXPECT_EQ(obs.count, 25);
  EXPECT_EQ(obs.last_w, 3);
}

TEST(AddressSpace, AccessPageNEmitsProportionalSamples) {
  TieredMemory mem(small_config(0, 64));
  AddressSpace space(mem, 0, kPageSize, kTierOnly(Tier::kSMem), /*sample_period=*/10);
  CountingObserver obs;
  space.set_observer(&obs);
  space.access_page_n(0, 95);
  EXPECT_EQ(obs.count, 9);
  space.access_page_n(0, 5);  // crosses the 100th access
  EXPECT_EQ(obs.count, 10);
}

TEST(AddressSpace, SampleCountIsPeriodMultiplesReached) {
  // Whatever mix of call sizes reaches it, the sample count after N accesses
  // is floor(N / period): zero-size calls, calls ending exactly on a
  // multiple, and calls spanning several periods at once.
  for (const std::uint64_t period : {1u, 3u, 7u, 256u}) {
    TieredMemory mem(small_config(0, 64));
    AddressSpace space(mem, 0, kPageSize, kTierOnly(Tier::kSMem), period);
    CountingObserver obs;
    space.set_observer(&obs);
    Rng rng(period);
    for (int i = 0; i < 2000; ++i) {
      space.access_page_n(0, rng.next_below(3 * period + 2));
      ASSERT_EQ(static_cast<std::uint64_t>(obs.count), space.total_accesses() / period)
          << "period " << period << " call " << i;
    }
  }
}

}  // namespace
}  // namespace mtat

namespace mtat {
namespace {

TEST(TieredMemory, ExchangeNotifiesBothPages) {
  TieredMemory mem(small_config(1, 1));
  const auto f = mem.allocate(0, 1, kTierOnly(Tier::kFMem));
  const auto s = mem.allocate(1, 1, kTierOnly(Tier::kSMem));
  std::vector<std::pair<PageId, TierId>> events;
  FnListener listener([&](PageId p, TierId, TierId to) { events.push_back({p, to}); });
  mem.add_migration_listener(&listener);
  mem.exchange(s[0], f[0]);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], (std::pair<PageId, TierId>{s[0], Tier::kFMem}));
  EXPECT_EQ(events[1], (std::pair<PageId, TierId>{f[0], Tier::kSMem}));
}

TEST(MigrationEngine, BudgetPersistsAcrossFailedMoves) {
  // A refused move (destination full) must not burn budget.
  TieredMemory mem(small_config(1, 8));
  mem.allocate(0, 1, kTierOnly(Tier::kFMem));
  const auto s = mem.allocate(1, 2, kTierOnly(Tier::kSMem));
  MigrationEngine eng(mem, {static_cast<double>(kPageSize) * 10, {}});
  eng.begin_interval(seconds(1));
  EXPECT_FALSE(eng.promote(s[0]));  // FMem full
  EXPECT_EQ(eng.budget_pages(), 10u);
  EXPECT_TRUE(eng.demote(mem.pages_of(0)[0]));
  EXPECT_EQ(eng.budget_pages(), 9u);
}

}  // namespace
}  // namespace mtat
