// The tiered-memory substrate: an N-tier page-frame simulator.
//
// This stands in for the paper's physical testbed — 32 GiB local DRAM (FMem,
// ~73 ns) plus 256 GiB NUMA-remote DRAM emulating CXL memory (SMem, ~202 ns)
// — generalized to an ordered vector of tiers (tier 0 = fastest) so the
// ROADMAP's DRAM/CXL/NVM/remote scenarios run on the same substrate. It
// tracks, for every simulated page frame: the owning workload and the tier
// it currently resides in, and exposes the placement primitives every policy
// in the reproduction (MTAT's PP-E, MEMTIS-like, TPP-like, static pins) is
// built on: allocate, migrate, and exchange.
//
// Deliberately NOT here: access counting (see telemetry/), bandwidth budgets
// for migrations (see MigrationEngine), and any notion of hotness. This class
// only knows where pages are; policies decide where they should be.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/units.h"

namespace mtat {

/// One tier of the topology, in fastest-to-slowest order. `link_bandwidth`
/// describes migration link k — the channel between this tier k and the next
/// slower tier k+1 — so the last tier's value is unused. The defaults are the
/// paper's testbed numbers (FMem latency for tier 0 is set explicitly by
/// Config::two_tier; migration bandwidth ~4 GB/s, §5.5).
struct TierSpec {
  std::string name;                   ///< informational label (e.g. "dram", "cxl")
  std::uint64_t capacity_pages = 0;   ///< tier capacity, in pages
  Duration latency = 0;               ///< uncontended per-access latency, ns
  double link_bandwidth_bytes_per_sec = 4.0 * 1024 * 1024 * 1024;
};

/// Observer of page placement changes (migrate/exchange). Implementations
/// register with TieredMemory::add_migration_listener and are invoked after
/// every placement change; they must outlive any further migrations.
///
/// This used to be a std::function<void(PageId, TierId, TierId)>: hotness
/// telemetry keeps its cached per-page tier field in sync through this hook,
/// so every migration paid a type-erased call per listener. A plain virtual
/// interface is one indirect call, and gives listeners a stable identity.
class MigrationListener {
 public:
  virtual ~MigrationListener() = default;
  virtual void on_migration(PageId p, TierId from, TierId to) = 0;
};

/// Where freshly allocated pages should land.
struct AllocPolicy {
  enum class Kind : std::uint8_t {
    kFastestFirst,  ///< fill tier 0, spill to 1, 2, ... (Linux default)
    kTierOnly,      ///< place everything in `tier`; fail if it cannot hold the request
  };
  Kind kind = Kind::kFastestFirst;
  TierId tier = kFastestTier;  ///< target tier for kTierOnly
};

/// Fill the fastest tier first, spilling one tier slower at a time.
inline constexpr AllocPolicy kFastestFirst{AllocPolicy::Kind::kFastestFirst, kFastestTier};
/// Pin the whole request to tier `t` (kTierOnly(1) is the old SMem-only pin).
constexpr AllocPolicy kTierOnly(TierId t) { return {AllocPolicy::Kind::kTierOnly, t}; }

class TieredMemory {
 public:
  struct Config {
    /// Ordered topology, fastest first. At least two tiers, at most
    /// kMaxTiers; latencies must be nondecreasing.
    std::vector<TierSpec> tiers;

    /// The classic two-tier testbed: FMem/SMem capacities in pages, with the
    /// paper's latencies by default.
    static Config two_tier(std::uint64_t fmem_pages, std::uint64_t smem_pages,
                           Duration fmem_latency = 73, Duration smem_latency = 202) {
      Config c;
      c.tiers.resize(2);
      c.tiers[0].name = "fmem";
      c.tiers[0].capacity_pages = fmem_pages;
      c.tiers[0].latency = fmem_latency;
      c.tiers[1].name = "smem";
      c.tiers[1].capacity_pages = smem_pages;
      c.tiers[1].latency = smem_latency;
      return c;
    }
  };

  explicit TieredMemory(const Config& cfg);

  // --- Allocation -----------------------------------------------------------

  /// Allocates `n` pages for workload `w` under the given placement policy.
  /// Returns the new page ids. Throws std::runtime_error if total capacity
  /// (or the target tier's capacity, for kTierOnly) is insufficient.
  std::vector<PageId> allocate(WorkloadId w, std::uint64_t n, AllocPolicy policy);

  // --- Queries ---------------------------------------------------------------

  TierId tier_of(PageId p) const { return info_[check(p)].tier; }
  WorkloadId owner_of(PageId p) const { return info_[check(p)].owner; }

  std::size_t tier_count() const { return cfg_.tiers.size(); }
  TierId slowest_tier() const { return static_cast<TierId>(cfg_.tiers.size() - 1); }
  /// Migration links: link k connects tiers k and k+1.
  std::size_t link_count() const { return cfg_.tiers.size() - 1; }
  const TierSpec& tier_spec(TierId t) const { return cfg_.tiers[t]; }

  /// Per-access latency of the given tier, including any contention factor
  /// currently applied (see set_contention_factor). Read on every charged
  /// access, so it is a cached value, recomputed only when the factor moves.
  Duration latency(TierId t) const { return latency_[t]; }

  /// Uncontended latency of a tier (the configured constant).
  Duration base_latency(TierId t) const { return cfg_.tiers[t].latency; }

  /// Bandwidth-contention multiplier on a tier's latency (>= 1). Set by the
  /// simulation's bandwidth model each tick when tier demand approaches the
  /// tier's sustainable rate; 1.0 means uncontended. Supports the §7
  /// bandwidth-aware policy extension.
  void set_contention_factor(TierId t, double factor) {
    if (factor < 1.0) throw std::invalid_argument("TieredMemory: contention factor < 1");
    contention_[check_tier(t)] = factor;
    latency_[t] = contended_latency(t);
  }
  double contention_factor(TierId t) const { return contention_[t]; }
  /// Latency of an access to page `p` given its current placement.
  Duration access_latency(PageId p) const { return latency(tier_of(p)); }

  std::uint64_t capacity(TierId t) const { return cfg_.tiers[t].capacity_pages; }
  std::uint64_t used(TierId t) const { return used_[t]; }
  std::uint64_t free_pages(TierId t) const { return capacity(t) - used(t); }

  /// Number of pages workload `w` currently has resident in tier `t`.
  std::uint64_t workload_pages(WorkloadId w, TierId t) const {
    return per_workload_[w].in_tier[t];
  }
  /// Total pages allocated to workload `w` (its simulated RSS).
  std::uint64_t workload_total(WorkloadId w) const {
    const auto& in_tier = per_workload_[w].in_tier;
    std::uint64_t total = 0;
    for (std::size_t t = 0; t < cfg_.tiers.size(); ++t) total += in_tier[t];
    return total;
  }
  /// Fraction of workload `w`'s pages resident in the fastest tier — the
  /// paper's "FMem Usage Ratio" state component and the Figure 2/5 residency
  /// series (FMem is tier 0 in any topology).
  double fmem_usage_ratio(WorkloadId w) const {
    const std::uint64_t total = workload_total(w);
    return total == 0 ? 0.0
                      : static_cast<double>(workload_pages(w, kFastestTier)) /
                            static_cast<double>(total);
  }

  /// All pages owned by workload `w`, in allocation order.
  const std::vector<PageId>& pages_of(WorkloadId w) const { return per_workload_[w].pages; }

  std::uint64_t page_count() const { return info_.size(); }
  std::uint16_t workload_count() const { return static_cast<std::uint16_t>(per_workload_.size()); }
  const Config& config() const { return cfg_; }

  // --- Placement primitives ---------------------------------------------------

  /// Moves page `p` to tier `to`. Returns false (and does nothing) when the
  /// destination tier is full or the page is already there. Costs one page of
  /// migration traffic per link crossed (accounted by the caller's
  /// MigrationEngine).
  bool migrate(PageId p, TierId to);

  /// Swaps the tiers of two pages currently in *different* tiers — the
  /// "memory tier exchange" of §3.1, which makes progress even when both
  /// tiers are full. The tiers need not be adjacent. Throws std::logic_error
  /// if the pages share a tier.
  void exchange(PageId a, PageId b);

  // --- Cumulative stats --------------------------------------------------------

  std::uint64_t total_migrations() const { return migrations_; }
  Bytes bytes_migrated() const { return migrations_ * kPageSize; }

  /// Registers `l` to observe every subsequent placement change. The
  /// listener is borrowed, not owned: it must stay alive for as long as
  /// pages can still migrate (telemetry/ and workload models register
  /// themselves for their own lifetime).
  void add_migration_listener(MigrationListener* l) { listeners_.push_back(l); }

 private:
  struct PageInfo {
    WorkloadId owner = kInvalidWorkload;
    TierId tier = Tier::kSMem;
  };
  struct WorkloadPages {
    std::vector<PageId> pages;
    std::array<std::uint64_t, kMaxTiers> in_tier{};
  };

  PageId check(PageId p) const {
    if (p >= info_.size()) throw std::out_of_range("TieredMemory: bad page id");
    return p;
  }
  TierId check_tier(TierId t) const {
    if (t >= cfg_.tiers.size()) throw std::out_of_range("TieredMemory: bad tier id");
    return t;
  }

  Duration contended_latency(TierId t) const {
    return static_cast<Duration>(static_cast<double>(cfg_.tiers[t].latency) * contention_[t]);
  }

  void place(PageId p, TierId t);  // internal move without full-destination check
  void ensure_workload(WorkloadId w);

  Config cfg_;
  std::vector<PageInfo> info_;
  std::vector<WorkloadPages> per_workload_;
  std::vector<MigrationListener*> listeners_;
  std::vector<std::uint64_t> used_;
  std::vector<double> contention_;
  std::array<Duration, kMaxTiers> latency_{};  // contended_latency(t), in step with contention_
  std::uint64_t migrations_ = 0;
};

}  // namespace mtat
