// PEBS-like sampled access monitor.
//
// The paper's PP-E samples MEM_LOAD_L3_MISS_RETIRED.{LOCAL,REMOTE}_DRAM and
// MEM_INST_RETIRED.ALL_STORES to classify each sampled access as FMem or SMem
// and accumulate page-level counts. Here the AddressSpace delivers a 1-in-N
// sample of modelled accesses; AccessSampler classifies it by the page's
// current tier, maintains the per-workload interval counters PP-M's RL state
// is built from (FMem Access Ratio, Memory Access Count), and fans the sample
// out to the registered PageHotness histograms. Samples arrive one at a time
// (AddressSpace) or in blocks (BEWorkload); both take the same delivery loop,
// which requests the tier entries and hotness words of samples a fixed
// distance ahead of the one it delivers.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"
#include "faults/fault_injector.h"
#include "mem/address_space.h"
#include "obs/names.h"
#include "obs/run_context.h"
#include "telemetry/page_hotness.h"

namespace mtat {

/// Per-workload counters accumulated over one observation interval.
struct IntervalCounters {
  std::uint64_t fmem_accesses = 0;  ///< sampled accesses resolved in the fastest tier
  std::uint64_t smem_accesses = 0;  ///< sampled accesses resolved in any slower tier
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  /// Per-tier breakdown of the same samples (tier_accesses[0] ==
  /// fmem_accesses; slower tiers sum to smem_accesses). Lets N-tier policies
  /// see where in the cascade the misses actually land.
  std::array<std::uint64_t, kMaxTiers> tier_accesses{};

  std::uint64_t total() const { return fmem_accesses + smem_accesses; }

  /// The paper's "FMem Access Ratio": share of accesses served by FMem.
  /// Returns 1.0 for an idle interval (no accesses means no SMem misses).
  double fmem_access_ratio() const {
    const std::uint64_t t = total();
    return t == 0 ? 1.0 : static_cast<double>(fmem_accesses) / static_cast<double>(t);
  }
};

class AccessSampler final : public AccessObserver {
 public:
  /// `sample_period` is the N of the AddressSpaces feeding this sampler; it is
  /// used only to scale sampled counts back to estimated true access counts.
  explicit AccessSampler(const TieredMemory& mem, std::uint64_t sample_period = 1)
      : mem_(&mem), sample_period_(sample_period == 0 ? 1 : sample_period) {}

  /// A lone sample: the n = 1 case of the batch loop.
  void on_sampled_access(WorkloadId w, PageId p, AccessKind kind) override {
    on_sampled_batch(w, &p, 1, kind);
  }

  /// The one sample path. Delivers pages[0, n) strictly in order, each
  /// exactly as a lone sample would be: fault draws (drop, then corrupt),
  /// tier classification, the sinks that admit `w`, then the callbacks — so
  /// a callback that migrates a page is seen by every later sample.
  /// Callbacks must not register sinks or feed samples back into the sampler.
  void on_sampled_batch(WorkloadId w, const PageId* pages, std::size_t n,
                        AccessKind kind) override {
    if (n == 0) return;
    if (current_.size() <= w) {
      current_.resize(static_cast<std::size_t>(w) + 1);
      cumulative_.resize(static_cast<std::size_t>(w) + 1);
    }
    IntervalCounters& c = current_[w];
    const std::vector<PageHotness*>& sinks = route(w);
    // The first sample's lines are loaded on use; warm the next ones.
    const std::size_t warm = n < kPrefetchDistance ? n : kPrefetchDistance;
    for (std::size_t i = 1; i < warm; ++i) prefetch(pages[i], sinks);
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kPrefetchDistance < n) prefetch(pages[i + kPrefetchDistance], sinks);
      PageId p = pages[i];
      if (faults_ != nullptr) {
        if (faults_->drop_sample()) {
          dropped_c_->inc();
          continue;
        }
        if (faults_->corrupt_sample()) {
          // Misattribute the sample to a uniformly random page of the same
          // workload — hotness and tier classification both go wrong, which
          // is the PEBS-misattribution failure mode.
          const std::vector<PageId>& owned = mem_->pages_of(w);
          if (!owned.empty()) {
            p = owned[faults_->pick(owned.size())];
            corrupted_c_->inc();
          }
        }
      }
      const TierId tier = mem_->tier_of(p);
      // Branch-free: which tier a sample lands in is unpredictable.
      c.fmem_accesses += tier == kFastestTier;
      c.smem_accesses += tier != kFastestTier;
      ++c.tier_accesses[tier];
      if (kind == AccessKind::kRead)
        ++c.reads;
      else
        ++c.writes;
      for (PageHotness* h : sinks) h->record_access(w, p);
      for (const auto& cb : callbacks_) cb(w, p, kind);
    }
  }

  /// Attach a fault injector (telemetry sample loss / corruption). Registers
  /// the fault counters lazily — a sampler without faults touches neither the
  /// registry nor the injector on the sample path.
  void set_faults(faults::FaultInjector* inj, obs::RunContext& ctx) {
    faults_ = inj;
    if (faults_ != nullptr) {
      dropped_c_ = &ctx.metrics().counter(obs::names::kFaultSamplesDropped);
      corrupted_c_ = &ctx.metrics().counter(obs::names::kFaultSamplesCorrupted);
    }
  }

  /// Attach a histogram that should receive every sample this monitor sees
  /// (a filtered histogram records only its own workload's samples).
  void add_sink(PageHotness* h) {
    sinks_.push_back(h);
    routes_.clear();
  }

  /// The attached histograms, in registration order — read-only, for state
  /// fingerprinting (ColocationSim::fingerprint()).
  const std::vector<PageHotness*>& sinks() const { return sinks_; }

  /// Attach an arbitrary per-sample callback (e.g. TPP's fault shadowing).
  using SampleCallback = std::function<void(WorkloadId, PageId, AccessKind)>;
  void add_callback(SampleCallback cb) { callbacks_.push_back(std::move(cb)); }

  /// Read-and-reset the interval counters for workload `w`. Called once per
  /// observation interval by the policy layer.
  IntervalCounters collect(WorkloadId w) {
    if (current_.size() <= w) return IntervalCounters{};
    IntervalCounters out = current_[w];
    accumulate(cumulative_[w], out);
    current_[w] = IntervalCounters{};
    return out;
  }

  /// Peek at the counters without resetting.
  IntervalCounters peek(WorkloadId w) const {
    return current_.size() <= w ? IntervalCounters{} : current_[w];
  }

  const IntervalCounters& cumulative(WorkloadId w) const {
    static const IntervalCounters kEmpty{};
    return cumulative_.size() <= w ? kEmpty : cumulative_[w];
  }

  /// Scale a sampled count to an estimate of the true access count.
  std::uint64_t to_true_count(std::uint64_t sampled) const { return sampled * sample_period_; }

  std::uint64_t sample_period() const { return sample_period_; }

 private:
  /// Samples whose tier entry and hotness words are requested ahead of the
  /// one being delivered. A BE block holds AliasSampler::kBlock samples.
  static constexpr std::size_t kPrefetchDistance = 16;

  void prefetch(PageId p, const std::vector<PageHotness*>& sinks) const {
    mem_->prefetch(p);
    for (const PageHotness* h : sinks) h->prefetch(p);
  }

  /// The sinks whose filter admits workload `w`, in registration order.
  /// Skipping the others changes nothing: a filtered histogram ignores every
  /// other workload's samples.
  const std::vector<PageHotness*>& route(WorkloadId w) {
    if (routes_.size() <= w) {
      const std::size_t from = routes_.size();
      routes_.resize(static_cast<std::size_t>(w) + 1);
      for (std::size_t r = from; r < routes_.size(); ++r)
        for (PageHotness* h : sinks_)
          if (h->workload_filter() == kInvalidWorkload || h->workload_filter() == r)
            routes_[r].push_back(h);
    }
    return routes_[w];
  }

  static void accumulate(IntervalCounters& into, const IntervalCounters& from) {
    into.fmem_accesses += from.fmem_accesses;
    into.smem_accesses += from.smem_accesses;
    into.reads += from.reads;
    into.writes += from.writes;
    for (std::size_t t = 0; t < from.tier_accesses.size(); ++t)
      into.tier_accesses[t] += from.tier_accesses[t];
  }

  const TieredMemory* mem_;
  faults::FaultInjector* faults_ = nullptr;
  obs::Counter* dropped_c_ = nullptr;    // set iff faults_ != nullptr
  obs::Counter* corrupted_c_ = nullptr;  // set iff faults_ != nullptr
  std::uint64_t sample_period_;
  std::vector<IntervalCounters> current_;
  std::vector<IntervalCounters> cumulative_;
  std::vector<PageHotness*> sinks_;
  /// routes_[w]: route(w)'s sink list; rebuilt lazily after add_sink.
  std::vector<std::vector<PageHotness*>> routes_;
  std::vector<SampleCallback> callbacks_;
};

}  // namespace mtat
