#include "workloads/be/be_workload.h"

#include <algorithm>
#include <stdexcept>

namespace mtat {

BEWorkload::BEWorkload(TieredMemory& mem, WorkloadId id, BEConfig cfg, AllocPolicy alloc,
                       AccessObserver* sampler, std::uint64_t seed)
    : mem_(&mem), id_(id), cfg_(std::move(cfg)), sampler_(sampler), rng_(seed) {
  if (cfg_.rss == 0) throw std::invalid_argument("BEWorkload: zero rss");
  if (cfg_.profile.num_pages() != bytes_to_pages(cfg_.rss))
    throw std::invalid_argument("BEWorkload: profile not stretched to rss");
  if (cfg_.cpu_ns_per_iter <= 0 || cfg_.cores <= 0 || cfg_.mlp <= 0)
    throw std::invalid_argument("BEWorkload: bad cpu/core/mlp config");
  space_ = std::make_unique<AddressSpace>(mem, id, cfg_.rss, alloc, cfg_.sample_period);
  alias_ = std::make_unique<AliasSampler>(cfg_.profile.weight);
  best_prefix_ = cfg_.profile.best_placement_prefix();

  // Pages are allocated in one contiguous id run (the allocator appends), so
  // PageId -> vpage is a subtraction; assert that assumption holds.
  const auto& pages = space_->pages();
  first_page_ = pages.front();
  for (std::size_t i = 0; i < pages.size(); ++i)
    if (pages[i] != first_page_ + i)
      throw std::logic_error("BEWorkload: non-contiguous page allocation");

  for (std::size_t i = 0; i < pages.size(); ++i)
    tier_weight_[mem.tier_of(pages[i])] += cfg_.profile.weight[i];

  mem.add_migration_listener(this);
}

void BEWorkload::on_migration(PageId p, TierId from, TierId to) {
  if (p < first_page_ || p >= first_page_ + space_->num_pages()) return;
  const double w = cfg_.profile.weight[p - first_page_];
  tier_weight_[from] -= w;
  tier_weight_[to] += w;
  ++migrations_pending_;
}

double BEWorkload::rate_for_weight(double fmem_weight) const {
  return rate_under(fmem_weight, static_cast<double>(mem_->latency(kFastestTier)),
                    static_cast<double>(mem_->latency(kFastestTier + 1)));
}

double BEWorkload::current_rate() const {
  // Two tiers keep the closed form over the fastest-tier weight. The N-tier
  // sum below is not bitwise equal at n = 2: it reads the separately tracked
  // slower-tier weight, which is not bitwise 1 - w0, so dropping this return
  // moves every 2-tier output and needs its own named re-baseline.
  if (mem_->tier_count() == 2) return rate_for_weight(tier_weight_[kFastestTier]);
  double expected_lat = 0.0;
  for (TierId t = 0; t < mem_->tier_count(); ++t)
    expected_lat += tier_weight_[t] * static_cast<double>(mem_->latency(t));
  return rate_at_latency(expected_lat);
}

double BEWorkload::rate_at_pages(std::uint64_t fmem_pages) const {
  const std::uint64_t g = std::min<std::uint64_t>(fmem_pages, space_->num_pages());
  return rate_for_weight(best_prefix_[g]);
}

void BEWorkload::tick(Duration dt) {
  // Migration churn steals compute time from the tick (page copies and, for
  // fault-driven policies, the faults themselves run on the tenant's path).
  const Duration stall =
      std::min<Duration>(dt, migrations_pending_ * cfg_.migration_stall);
  migrations_pending_ = 0;
  const double iters = current_rate() * to_seconds(dt - stall);
  total_iterations_ += iters;
  interval_iterations_ += iters;
  if (sampler_ == nullptr) return;
  // Emit the PEBS-like sample stream: true accesses / sample period, with a
  // fractional carry so low-rate ticks still sample in the long run.
  sample_carry_ += iters * cfg_.profile.accesses_per_iteration /
                   static_cast<double>(cfg_.sample_period);
  const auto n = static_cast<std::uint64_t>(sample_carry_);
  sample_carry_ -= static_cast<double>(n);
  // One block at a time: draw the block's pages (the RNG sequence of n
  // single draws), then hand them to the sampler as one batch. Drawing never
  // reads placement, so drawing ahead of delivery changes no sample.
  std::array<PageId, AliasSampler::kBlock> block;
  for (std::uint64_t done = 0; done < n;) {
    const auto m = static_cast<std::size_t>(std::min<std::uint64_t>(n - done, block.size()));
    alias_->draw(rng_, block.data(), m);
    for (std::size_t i = 0; i < m; ++i) block[i] += first_page_;
    sampler_->on_sampled_batch(id_, block.data(), m, AccessKind::kRead);
    done += m;
  }
}

double BEWorkload::take_interval_iterations() {
  const double out = interval_iterations_;
  interval_iterations_ = 0.0;
  return out;
}

}  // namespace mtat
