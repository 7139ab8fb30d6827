// Implementing your own tiering policy against the library's substrate.
//
// The entire policy surface is the TieringPolicy interface plus the
// PolicyContext plumbing (memory, migration engine, telemetry). This example
// builds a deliberately simple "static reserve" policy — pin a fixed
// fraction of FMem for the LC tenant, run MEMTIS-style hotness exchange for
// the rest — wires it into the simulation loop by hand, and compares it
// against MTAT. It is the template to copy when prototyping a new scheme.
//
//   ./custom_policy
#include <cstdio>
#include <memory>

#include "sim/colocation_sim.h"
#include "telemetry/page_hotness.h"
#include "workloads/be/be_suite.h"

using namespace mtat;

namespace {

/// A fixed LC reservation: the simplest possible LC-aware policy. Holds
/// `reserve_fraction` of FMem for the LC tenant (hottest pages resident) and
/// lets BE pages compete for the remainder by hotness.
class StaticReservePolicy : public TieringPolicy {
 public:
  StaticReservePolicy(const PolicyContext& ctx, double reserve_fraction)
      : ctx_(ctx),
        lc_quota_(static_cast<std::uint64_t>(
            reserve_fraction * static_cast<double>(ctx.mem->capacity(kFastestTier)))) {
    // One histogram per tenant, fed by the shared PEBS-like sampler.
    for (const TenantInfo& t : ctx_.tenants) {
      hist_.push_back(std::make_unique<PageHotness>(*ctx_.mem, t.id));
      hist_.back()->seed_allocated_pages();
      ctx_.sampler->add_sink(hist_.back().get());
    }
  }

  std::string name() const override { return "static_reserve"; }

  void on_tick(SimTime, Duration) override {
    TieredMemory& mem = *ctx_.mem;
    MigrationEngine& eng = *ctx_.engine;
    const WorkloadId lc = ctx_.lc_tenant().id;
    // 1. Enforce the LC reservation: promote LC pages (hottest first) while
    //    below quota, displacing the globally coldest BE page.
    while (mem.workload_pages(lc, kFastestTier) < lc_quota_ && eng.budget_pages() >= 2) {
      const auto up = pick(lc, kFastestTier + 1, /*hottest=*/true);
      const auto down = coldest_be_fmem_page();
      if (up == kInvalidPage || down == kInvalidPage) break;
      if (!eng.exchange(up, down)) break;
    }
    // 2. Hotness exchange for the residual (non-reserved) FMem: the hottest
    //    BE SMem page displaces the coldest unprotected FMem page — an LC
    //    page while LC sits above its reservation, a BE page otherwise.
    for (int i = 0; i < 256 && eng.budget_pages() >= 2; ++i) {
      PageId best_up = kInvalidPage;
      int best_bin = 0;
      for (std::size_t w = 0; w < ctx_.tenants.size(); ++w) {
        if (ctx_.tenants[w].is_lc) continue;
        const auto hot = hist_[w]->hottest_in_tier(kFastestTier + 1, 1);
        if (!hot.empty() && hist_[w]->bin_of_page(hot[0]) > best_bin) {
          best_bin = hist_[w]->bin_of_page(hot[0]);
          best_up = hot[0];
        }
      }
      const bool lc_above_reserve = mem.workload_pages(lc, kFastestTier) > lc_quota_;
      const PageId down =
          lc_above_reserve ? pick(lc, kFastestTier, /*hottest=*/false) : coldest_be_fmem_page();
      if (best_up == kInvalidPage || down == kInvalidPage) break;
      // LC pages above the reserve are fair game regardless of bin; among BE
      // pages, only displace strictly colder ones.
      if (!lc_above_reserve && best_bin <= bin_of(down)) break;
      if (!eng.exchange(best_up, down)) break;
    }
  }

  void on_interval(SimTime, Duration, Duration) override {
    for (auto& h : hist_) h->age();
  }

 private:
  PageId pick(WorkloadId w, TierId t, bool hottest) {
    for (std::size_t i = 0; i < ctx_.tenants.size(); ++i) {
      if (ctx_.tenants[i].id != w) continue;
      const auto v = hottest ? hist_[i]->hottest_in_tier(t, 1) : hist_[i]->coldest_in_tier(t, 1);
      if (!v.empty()) return v[0];
      const auto any = hist_[i]->coldest_in_tier(t, 1);
      return any.empty() ? kInvalidPage : any[0];
    }
    return kInvalidPage;
  }

  PageId coldest_be_fmem_page() {
    PageId best = kInvalidPage;
    int best_bin = PageHotness::kBins;
    for (std::size_t w = 0; w < ctx_.tenants.size(); ++w) {
      if (ctx_.tenants[w].is_lc) continue;
      const auto cold = hist_[w]->coldest_in_tier(kFastestTier, 1);
      if (!cold.empty() && hist_[w]->bin_of_page(cold[0]) < best_bin) {
        best_bin = hist_[w]->bin_of_page(cold[0]);
        best = cold[0];
      }
    }
    return best;
  }

  int bin_of(PageId p) {
    for (auto& h : hist_) {
      const int b = h->bin_of_page(p);
      if (b >= 0) return b;
    }
    return 0;
  }

  PolicyContext ctx_;
  std::uint64_t lc_quota_;
  std::vector<std::unique_ptr<PageHotness>> hist_;
};

/// Hand-rolled simulation loop: the pieces ColocationSim wires for you.
void run_custom(double reserve_fraction) {
  const TieredMemory::Config mc = TieredMemory::Config::two_tier(
      bytes_to_pages(Bytes{128} * 1024 * 1024),
      bytes_to_pages(Bytes{2} * 1024 * 1024 * 1024));
  TieredMemory mem(mc);
  MigrationEngine engine(mem, {4.0 * 1024 * 1024 * 1024, {}});
  AccessSampler sampler(mem, 1024);

  LCConfig lc_cfg = redis_config();
  lc_cfg.n_records = 130'000;
  LCWorkload lc(mem, 0, lc_cfg, kFastestFirst, 1);
  lc.space().set_observer(&sampler);
  std::vector<std::unique_ptr<BEWorkload>> be;
  WorkloadId next_id = 1;
  for (BEConfig& bc : be_suite(BEScale::kTest, Bytes{140} * 1024 * 1024, 4, 2))
    be.push_back(std::make_unique<BEWorkload>(mem, next_id++, bc, kFastestFirst,
                                              &sampler, next_id));

  PolicyContext ctx;
  ctx.mem = &mem;
  ctx.engine = &engine;
  ctx.sampler = &sampler;
  ctx.tenants.push_back({0, true});
  for (std::size_t i = 0; i < be.size(); ++i)
    ctx.tenants.push_back({static_cast<WorkloadId>(i + 1), false});
  StaticReservePolicy policy(ctx, reserve_fraction);

  QueueSim queue(lc, seconds(1), 7);
  const LoadPattern load = LoadPattern::figure7(lc_cfg.max_load_krps * 1000.0);
  queue.set_pattern(&load, 0);

  const Duration tick = milliseconds(10);
  SimTime now = 0, next_interval = seconds(1);
  while (now < load.total_length()) {
    engine.begin_interval(tick);
    policy.on_tick(now, tick);
    for (auto& b : be) b->tick(tick);
    queue.run_until(now + tick);
    now += tick;
    if (now >= next_interval) {
      policy.on_interval(now, seconds(1), 0);
      next_interval += seconds(1);
    }
  }
  std::printf("reserve %3.0f%%: P99 %9.2f ms, violations %5.2f%%, LC FMem ratio %.2f\n",
              reserve_fraction * 100,
              static_cast<double>(queue.recorder().p99_series().back()) / 1e6,
              100.0 * queue.recorder().violation_rate(), mem.fmem_usage_ratio(0));
}

}  // namespace

int main() {
  std::printf("a custom 'static reserve' policy at several reservation sizes:\n");
  for (double f : {0.0, 0.25, 0.5, 0.75}) run_custom(f);
  std::printf("\nthe tradeoff a static reserve cannot escape: small reserves violate the\n"
              "SLO at peak load, large ones starve BE all the time — which is exactly\n"
              "the gap MTAT's adaptive reservation closes (see policy_comparison).\n");
  return 0;
}
