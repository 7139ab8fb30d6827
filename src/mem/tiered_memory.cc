#include "mem/tiered_memory.h"

#include <algorithm>

namespace mtat {

TieredMemory::TieredMemory(const Config& cfg) : cfg_(cfg) {
  if (cfg.tiers.size() < 2)
    throw std::invalid_argument("TieredMemory: topology needs at least two tiers");
  if (cfg.tiers.size() > kMaxTiers)
    throw std::invalid_argument("TieredMemory: topology exceeds kMaxTiers tiers");
  std::uint64_t total = 0;
  for (std::size_t t = 0; t < cfg.tiers.size(); ++t) {
    total += cfg.tiers[t].capacity_pages;
    if (t > 0 && cfg.tiers[t].latency < cfg.tiers[t - 1].latency)
      throw std::invalid_argument(
          "TieredMemory: tier latencies must be nondecreasing (tier 0 is fastest)");
  }
  if (total == 0) throw std::invalid_argument("TieredMemory: zero total capacity");
  used_.assign(cfg.tiers.size(), 0);
  contention_.assign(cfg.tiers.size(), 1.0);
  for (TierId t = 0; t < cfg.tiers.size(); ++t) latency_[t] = contended_latency(t);
  info_.reserve(total);
}

void TieredMemory::ensure_workload(WorkloadId w) {
  if (w == kInvalidWorkload) throw std::invalid_argument("TieredMemory: invalid workload id");
  if (per_workload_.size() <= w) per_workload_.resize(static_cast<std::size_t>(w) + 1);
}

std::vector<PageId> TieredMemory::allocate(WorkloadId w, std::uint64_t n, AllocPolicy policy) {
  ensure_workload(w);
  // Per-tier takes, in tier order: kFastestFirst fills each tier before
  // spilling one slower (at two tiers, exactly the old FMem-first split);
  // kTierOnly pins the whole request.
  std::array<std::uint64_t, kMaxTiers> take{};
  if (policy.kind == AllocPolicy::Kind::kTierOnly) {
    const TierId t = check_tier(policy.tier);
    if (free_pages(t) < n)
      throw std::runtime_error("TieredMemory: single-tier allocation does not fit");
    take[t] = n;
  } else {
    std::uint64_t remaining = n;
    for (TierId t = 0; t < tier_count() && remaining > 0; ++t) {
      take[t] = std::min(remaining, free_pages(t));
      remaining -= take[t];
    }
    if (remaining > 0)
      throw std::runtime_error("TieredMemory: allocation exceeds total capacity");
  }

  std::vector<PageId> out;
  out.reserve(n);
  auto& wl = per_workload_[w];
  for (TierId t = 0; t < tier_count(); ++t) {
    for (std::uint64_t i = 0; i < take[t]; ++i) {
      const auto p = static_cast<PageId>(info_.size());
      info_.push_back(PageInfo{w, t});
      used_[t]++;
      wl.pages.push_back(p);
      wl.in_tier[t]++;
      out.push_back(p);
    }
  }
  return out;
}

void TieredMemory::place(PageId p, TierId t) {
  PageInfo& pi = info_[p];
  const TierId from = pi.tier;
  used_[from]--;
  used_[t]++;
  auto& wl = per_workload_[pi.owner];
  wl.in_tier[from]--;
  wl.in_tier[t]++;
  pi.tier = t;
  migrations_++;
  for (MigrationListener* l : listeners_) l->on_migration(p, from, t);
}

bool TieredMemory::migrate(PageId p, TierId to) {
  check(p);
  check_tier(to);
  if (info_[p].tier == to) return false;
  if (free_pages(to) == 0) return false;
  place(p, to);
  return true;
}

void TieredMemory::exchange(PageId a, PageId b) {
  check(a);
  check(b);
  const TierId ta = info_[a].tier;
  const TierId tb = info_[b].tier;
  if (ta == tb) throw std::logic_error("TieredMemory::exchange: pages share a tier");
  place(a, tb);
  place(b, ta);
}

}  // namespace mtat
