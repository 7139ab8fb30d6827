// Differential test for the batched BE telemetry sample stream.
//
// RefAlias and RefSampler below transcribe the per-sample code the batched
// stream replaced: one alias draw (next_below for the column, next_double for
// the coin) and one on_sampled_access call per sample, which classifies the
// sample's tier, bumps the interval counters, offers the sample to EVERY sink
// (filtered histograms drop other workloads' samples themselves) and then
// runs the callbacks. The reference BE tick is that loop: n draws, n calls.
//
// Each test builds two identical worlds. World A runs the real BEWorkload::
// tick, which draws in blocks and hands each block to AccessSampler::
// on_sampled_batch; world B replays the same per-tick sample counts through
// the reference. After every tick the two must agree exactly: the drawn and
// the delivered page sequences (so the BE RNG sits at the same position: each
// tick continues the previous tick's sequence), the interval counters and
// cumulative(), the fault counters, every page's tier, and every histogram
// bin's page list in structural order.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/alias_sampler.h"
#include "common/rng.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "mem/tiered_memory.h"
#include "obs/names.h"
#include "obs/run_context.h"
#include "telemetry/access_sampler.h"
#include "telemetry/page_hotness.h"
#include "workloads/be/be_workload.h"

namespace mtat {
namespace {

constexpr std::size_t kB = AliasSampler::kBlock;

// --------------------------------------------------------------- reference --

/// The per-sample alias sampler: table construction and one draw per call.
class RefAlias {
 public:
  explicit RefAlias(const std::vector<double>& weights) {
    const std::size_t n = weights.size();
    double total = 0.0;
    for (double w : weights) total += w;
    prob_.resize(n);
    alias_.resize(n);
    std::vector<double> scaled(n);
    std::vector<std::uint32_t> small, large;
    for (std::size_t i = 0; i < n; ++i) {
      scaled[i] = weights[i] * static_cast<double>(n) / total;
      (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s = small.back();
      small.pop_back();
      const std::uint32_t l = large.back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] -= 1.0 - scaled[s];
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (std::uint32_t i : large) prob_[i] = 1.0;
    for (std::uint32_t i : small) prob_[i] = 1.0;
    for (std::size_t i = 0; i < n; ++i)
      if (prob_[i] >= 1.0) alias_[i] = static_cast<std::uint32_t>(i);
  }

  std::uint32_t operator()(Rng& rng) const {
    const std::uint32_t col = static_cast<std::uint32_t>(rng.next_below(prob_.size()));
    return rng.next_double() < prob_[col] ? col : alias_[col];
  }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

/// The per-sample AccessSampler: every sink sees every sample.
class RefSampler : public AccessObserver {
 public:
  RefSampler(const TieredMemory& mem, faults::FaultInjector* faults)
      : mem_(&mem), faults_(faults) {}

  void on_sampled_access(WorkloadId w, PageId p, AccessKind kind) override {
    if (faults_ != nullptr) {
      if (faults_->drop_sample()) {
        ++dropped;
        return;
      }
      if (faults_->corrupt_sample()) {
        const std::vector<PageId>& pages = mem_->pages_of(w);
        if (!pages.empty()) {
          p = pages[faults_->pick(pages.size())];
          ++corrupted;
        }
      }
    }
    if (current_.size() <= w) {
      current_.resize(static_cast<std::size_t>(w) + 1);
      cumulative_.resize(static_cast<std::size_t>(w) + 1);
    }
    IntervalCounters& c = current_[w];
    const TierId tier = mem_->tier_of(p);
    if (tier == kFastestTier)
      ++c.fmem_accesses;
    else
      ++c.smem_accesses;
    ++c.tier_accesses[tier];
    if (kind == AccessKind::kRead)
      ++c.reads;
    else
      ++c.writes;
    for (PageHotness* h : sinks_) h->record_access(w, p);
    for (const auto& cb : callbacks_) cb(w, p, kind);
  }

  void add_sink(PageHotness* h) { sinks_.push_back(h); }
  void add_callback(AccessSampler::SampleCallback cb) { callbacks_.push_back(std::move(cb)); }

  IntervalCounters collect(WorkloadId w) {
    if (current_.size() <= w) return IntervalCounters{};
    IntervalCounters out = current_[w];
    IntervalCounters& into = cumulative_[w];
    into.fmem_accesses += out.fmem_accesses;
    into.smem_accesses += out.smem_accesses;
    into.reads += out.reads;
    into.writes += out.writes;
    for (std::size_t t = 0; t < out.tier_accesses.size(); ++t)
      into.tier_accesses[t] += out.tier_accesses[t];
    current_[w] = IntervalCounters{};
    return out;
  }

  IntervalCounters cumulative(WorkloadId w) const {
    return cumulative_.size() <= w ? IntervalCounters{} : cumulative_[w];
  }

  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;

 private:
  const TieredMemory* mem_;
  faults::FaultInjector* faults_;
  std::vector<IntervalCounters> current_;
  std::vector<IntervalCounters> cumulative_;
  std::vector<PageHotness*> sinks_;
  std::vector<AccessSampler::SampleCallback> callbacks_;
};

// ----------------------------------------------------------------- helpers --

void expect_same(const IntervalCounters& a, const IntervalCounters& b, const std::string& what) {
  EXPECT_EQ(a.fmem_accesses, b.fmem_accesses) << what;
  EXPECT_EQ(a.smem_accesses, b.smem_accesses) << what;
  EXPECT_EQ(a.reads, b.reads) << what;
  EXPECT_EQ(a.writes, b.writes) << what;
  for (std::size_t t = 0; t < a.tier_accesses.size(); ++t)
    EXPECT_EQ(a.tier_accesses[t], b.tier_accesses[t]) << what << " tier " << t;
}

void expect_same_bins(const PageHotness& a, const PageHotness& b, const std::string& what) {
  ASSERT_EQ(a.tier_count(), b.tier_count());
  EXPECT_EQ(a.tracked_pages(), b.tracked_pages()) << what;
  for (TierId t = 0; t < a.tier_count(); ++t)
    for (int bin = 0; bin < PageHotness::kBins; ++bin)
      ASSERT_EQ(a.bin_pages(t, bin), b.bin_pages(t, bin))
          << what << " tier " << int{t} << " bin " << bin;
}

double counter_value(const obs::RunContext& ctx, const char* name) {
  const obs::Counter* c = ctx.metrics().find_counter(name);
  return c != nullptr ? c->value() : 0.0;
}

TieredMemory::Config memory_config(int tiers) {
  if (tiers == 2) return TieredMemory::Config::two_tier(96, 1024);
  TieredMemory::Config cfg;
  cfg.tiers = {{"dram", 96, 73, 4096.0 * kPageSize},
               {"cxl", 160, 202, 4096.0 * kPageSize},
               {"nvm", 1024, 450, 4096.0 * kPageSize}};
  return cfg;
}

/// A skewed synthetic profile over `pages` pages: a few heavy pages, a long
/// light tail and some never-touched pages, so alias columns take both sides
/// of the coin.
BEConfig be_config(std::uint64_t pages, std::uint64_t seed) {
  BEConfig c;
  c.name = "synthetic";
  c.rss = pages * kPageSize;
  c.cpu_ns_per_iter = 1000.0;
  c.cores = 1;
  c.mlp = 1.0;
  c.sample_period = 4;
  Rng r(seed);
  c.profile.weight.resize(pages);
  double total = 0.0;
  for (std::uint64_t i = 0; i < pages; ++i) {
    const double u = r.next_double();
    c.profile.weight[i] = i % 7 == 3 ? 0.0 : (i % 13 == 0 ? 40.0 : 1.0) * u * u;
    total += c.profile.weight[i];
  }
  for (double& w : c.profile.weight) w /= total;
  c.profile.accesses_per_iteration = 10.0;
  return c;
}

/// The tick length after which a fresh BEWorkload emits exactly `n` samples:
/// its sample carry starts at zero, so n = floor(rate * dt * accesses /
/// period), and aiming at n + 0.5 leaves half a sample of slack either side.
Duration dt_for_samples(const BEWorkload& be, std::uint64_t n) {
  const BEConfig& c = be.config();
  const double per_ns = be.current_rate() * c.profile.accesses_per_iteration /
                        static_cast<double>(c.sample_period) / 1e9;
  return static_cast<Duration>(std::ceil((static_cast<double>(n) + 0.5) / per_ns));
}

/// Forwards BE batches to the real sampler unchanged, recording the drawn
/// pages and how many each workload emitted.
class Tap : public AccessObserver {
 public:
  explicit Tap(AccessObserver& to) : emitted(kMaxWorkloads, 0), to_(&to) {}

  void on_sampled_access(WorkloadId w, PageId p, AccessKind kind) override {
    on_sampled_batch(w, &p, 1, kind);
  }
  void on_sampled_batch(WorkloadId w, const PageId* pages, std::size_t n,
                        AccessKind kind) override {
    drawn.insert(drawn.end(), pages, pages + n);
    emitted.at(w) += n;
    to_->on_sampled_batch(w, pages, n, kind);
  }

  static constexpr std::size_t kMaxWorkloads = 3;
  std::vector<PageId> drawn;
  std::vector<std::uint64_t> emitted;  ///< samples emitted so far, per workload

 private:
  AccessObserver* to_;
};

// --------------------------------------------------------------- scenarios --

enum class Sinks { kUnfiltered, kPerTenant, kBoth };

struct Scenario {
  const char* name;
  int tiers;
  Sinks sinks;
  bool faults;
  bool migrating_callback;
};

void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

const Scenario kScenarios[] = {
    {"MemtisTwoTier", 2, Sinks::kUnfiltered, false, false},
    {"PpeTwoTier", 2, Sinks::kPerTenant, false, false},
    {"BothSinksFaulted", 2, Sinks::kBoth, true, false},
    {"PpeMigratingCallback", 2, Sinks::kPerTenant, false, true},
    {"MemtisThreeTier", 3, Sinks::kUnfiltered, false, false},
    {"PpeThreeTierFaultedMigrating", 3, Sinks::kPerTenant, true, true},
    {"BothThreeTierMigrating", 3, Sinks::kBoth, false, true},
};

constexpr WorkloadId kLc = 0;         // a tenant with pages but no BE stream
constexpr WorkloadId kBe[] = {1, 2};  // the BE workloads, ticked in this order
constexpr std::uint64_t kBePages[] = {300, 180};
constexpr std::uint64_t kBeSeed[] = {0xB1, 0xB2};

/// One world's telemetry: histograms attached to a sampler over `mem`, in the
/// same registration order in both worlds.
struct Telemetry {
  std::vector<std::unique_ptr<PageHotness>> sinks;
  /// Each sample as the callbacks see it (after drop and corruption), with
  /// the page's summed histogram counts at that moment: the sinks must
  /// already have recorded the sample when the callbacks run.
  std::vector<std::pair<PageId, std::uint64_t>> delivered;
  std::uint64_t samples_seen = 0;

  template <class Sampler>
  void attach(TieredMemory& mem, Sampler& sampler, const Scenario& sc) {
    if (sc.sinks != Sinks::kPerTenant) sinks.push_back(std::make_unique<PageHotness>(mem));
    if (sc.sinks != Sinks::kUnfiltered)
      for (WorkloadId w : {kLc, kBe[0], kBe[1]})
        sinks.push_back(std::make_unique<PageHotness>(mem, w));
    for (auto& h : sinks) {
      h->seed_allocated_pages();
      sampler.add_sink(h.get());
    }
    sampler.add_callback([this](WorkloadId, PageId p, AccessKind) {
      std::uint64_t counts = 0;
      for (const auto& h : sinks) counts += h->count_of(p);
      delivered.emplace_back(p, counts);
    });
    if (sc.migrating_callback) {
      // Every third delivered sample moves its page one way or the other, in
      // the middle of a block: later samples of that page must see the move.
      TieredMemory* m = &mem;
      sampler.add_callback([this, m](WorkloadId, PageId p, AccessKind) {
        if (++samples_seen % 3 != 0) return;
        const TierId to = m->tier_of(p) == kFastestTier ? m->slowest_tier() : kFastestTier;
        m->migrate(p, to);
      });
    }
  }
};

faults::FaultPlan lossy_plan() {
  faults::FaultPlan plan;
  plan.sample_loss_prob = 0.2;
  plan.sample_corruption_prob = 0.15;
  return plan;
}

class SampleStreamEquivalence
    : public ::testing::TestWithParam<std::tuple<Scenario, std::uint64_t>> {};

TEST_P(SampleStreamEquivalence, BatchedTickMatchesPerSampleReference) {
  const auto& [sc, first_tick_samples] = GetParam();

  // World A: the real BE workloads feeding the real sampler.
  TieredMemory mem_a(memory_config(sc.tiers));
  mem_a.allocate(kLc, 40, kFastestFirst);
  obs::RunContext ctx;
  AccessSampler sampler_a(mem_a, 4);
  if (sc.faults) {
    ctx.install_faults(lossy_plan());
    sampler_a.set_faults(ctx.faults(), ctx);
  }
  Tap tap(sampler_a);
  std::vector<std::unique_ptr<BEWorkload>> be;
  for (int i = 0; i < 2; ++i)
    be.push_back(std::make_unique<BEWorkload>(mem_a, kBe[i], be_config(kBePages[i], kBeSeed[i]),
                                              kFastestFirst, &tap, kBeSeed[i]));
  Telemetry tel_a;
  tel_a.attach(mem_a, sampler_a, sc);

  // World B: the same allocations, replayed through the per-sample reference.
  TieredMemory mem_b(memory_config(sc.tiers));
  mem_b.allocate(kLc, 40, kFastestFirst);
  faults::FaultInjector inj_b(lossy_plan());
  RefSampler sampler_b(mem_b, sc.faults ? &inj_b : nullptr);
  std::vector<RefAlias> alias_b;
  std::vector<Rng> rng_b;
  std::vector<PageId> first_b;
  for (int i = 0; i < 2; ++i) {
    const BEConfig cfg = be_config(kBePages[i], kBeSeed[i]);
    first_b.push_back(mem_b.allocate(kBe[i], cfg.profile.num_pages(), kFastestFirst).front());
    alias_b.emplace_back(cfg.profile.weight);
    rng_b.emplace_back(kBeSeed[i]);
  }
  Telemetry tel_b;
  tel_b.attach(mem_b, sampler_b, sc);
  ASSERT_EQ(mem_a.page_count(), mem_b.page_count());
  ASSERT_EQ(first_b[0], be[0]->space().pages().front());

  std::vector<PageId> drawn_b;
  for (int tick = 0; tick < 5; ++tick) {
    const std::vector<std::uint64_t> before = tap.emitted;
    for (int i = 0; i < 2; ++i) {
      // The first tick emits exactly the parameter's count; later ticks run
      // with migration stalls and carries, about 2.5 blocks each.
      const Duration dt = dt_for_samples(*be[i], tick == 0 ? first_tick_samples : 5 * kB / 2);
      be[i]->tick(dt);
    }
    for (int i = 0; i < 2; ++i) {
      const std::uint64_t n = tap.emitted[kBe[i]] - before[kBe[i]];
      if (tick == 0) {
        ASSERT_EQ(n, first_tick_samples) << "BE " << i;
      }
      for (std::uint64_t k = 0; k < n; ++k) {
        const PageId p = first_b[i] + alias_b[i](rng_b[i]);
        drawn_b.push_back(p);
        sampler_b.on_sampled_access(kBe[i], p, AccessKind::kRead);
      }
    }
    const std::string at = std::string(sc.name) + " tick " + std::to_string(tick);
    ASSERT_EQ(tap.drawn, drawn_b) << at;
    ASSERT_EQ(tel_a.delivered, tel_b.delivered) << at;
    for (WorkloadId w : {kLc, kBe[0], kBe[1]}) {
      expect_same(sampler_a.collect(w), sampler_b.collect(w), at + " interval w" + std::to_string(w));
      expect_same(sampler_a.cumulative(w), sampler_b.cumulative(w),
                  at + " cumulative w" + std::to_string(w));
    }
    for (PageId p = 0; p < mem_a.page_count(); ++p)
      ASSERT_EQ(mem_a.tier_of(p), mem_b.tier_of(p)) << at << " page " << p;
    for (std::size_t s = 0; s < tel_a.sinks.size(); ++s)
      expect_same_bins(*tel_a.sinks[s], *tel_b.sinks[s], at + " sink " + std::to_string(s));
    if (sc.faults) {
      EXPECT_EQ(counter_value(ctx, obs::names::kFaultSamplesDropped),
                static_cast<double>(sampler_b.dropped)) << at;
      EXPECT_EQ(counter_value(ctx, obs::names::kFaultSamplesCorrupted),
                static_cast<double>(sampler_b.corrupted)) << at;
    }
    // Age between ticks so later ticks cross bin boundaries at other counts.
    if (tick % 2 == 1) {
      for (auto& h : tel_a.sinks) h->age();
      for (auto& h : tel_b.sinks) h->age();
    }
  }
  if (sc.faults) {
    EXPECT_GT(sampler_b.dropped + sampler_b.corrupted, 0u);
  }
  if (sc.migrating_callback) {
    EXPECT_GT(mem_a.total_migrations(), 0u);
  }
}

std::string scenario_name(
    const ::testing::TestParamInfo<std::tuple<Scenario, std::uint64_t>>& info) {
  return std::string(std::get<0>(info.param).name) + "_" +
         std::to_string(std::get<1>(info.param)) + "Samples";
}

INSTANTIATE_TEST_SUITE_P(
    Streams, SampleStreamEquivalence,
    ::testing::Combine(::testing::ValuesIn(kScenarios),
                       ::testing::Values(std::uint64_t{0}, std::uint64_t{1}, kB - 1, kB, kB + 1,
                                         3 * kB + 7)),
    scenario_name);

// ------------------------------------------------------- direct batch entry --

/// Batches fed straight to on_sampled_batch, of every size around the block
/// and prefetch boundaries, equal the same pages fed one at a time.
TEST(SampleStreamBatch, EveryBatchSizeEqualsPerSampleDelivery) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{15}, std::size_t{16},
                              std::size_t{17}, kB - 1, kB, kB + 1, 3 * kB + 7}) {
    TieredMemory mem_a(memory_config(2));
    TieredMemory mem_b(memory_config(2));
    const auto pages = mem_a.allocate(1, 200, kFastestFirst);
    mem_b.allocate(1, 200, kFastestFirst);
    AccessSampler sampler_a(mem_a);
    RefSampler sampler_b(mem_b, nullptr);
    PageHotness h_a(mem_a), h_b(mem_b);
    PageHotness f_a(mem_a, 1), f_b(mem_b, 1);
    for (PageHotness* h : {&h_a, &f_a}) sampler_a.add_sink(h);
    for (PageHotness* h : {&h_b, &f_b}) sampler_b.add_sink(h);
    Rng r(n + 1);
    std::vector<PageId> batch(n);
    for (auto& p : batch) p = pages[r.next_below(pages.size())];
    sampler_a.on_sampled_batch(1, batch.data(), n, AccessKind::kWrite);
    for (PageId p : batch) sampler_b.on_sampled_access(1, p, AccessKind::kWrite);
    const std::string at = "n=" + std::to_string(n);
    expect_same(sampler_a.collect(1), sampler_b.collect(1), at);
    expect_same_bins(h_a, h_b, at);
    expect_same_bins(f_a, f_b, at);
  }
}

/// A bad page id inside a block throws std::out_of_range at its own turn,
/// exactly like a lone sample: every sample before it is fully delivered and
/// nothing after it is. The bad id sits within prefetch reach of earlier
/// samples, so the look-ahead must not touch it either.
TEST(SampleStreamBatch, BadPageIdThrowsAtItsTurn) {
  TieredMemory mem(memory_config(2));
  const auto pages = mem.allocate(1, 64, kFastestFirst);
  AccessSampler sampler(mem);
  PageHotness hist(mem);
  sampler.add_sink(&hist);
  std::size_t callbacks = 0;
  sampler.add_callback([&](WorkloadId, PageId, AccessKind) { ++callbacks; });
  std::vector<PageId> batch(40, pages[5]);
  batch[30] = static_cast<PageId>(mem.page_count() + 1000);
  EXPECT_THROW(sampler.on_sampled_batch(1, batch.data(), batch.size(), AccessKind::kRead),
               std::out_of_range);
  EXPECT_EQ(sampler.peek(1).total(), 30u);
  EXPECT_EQ(hist.count_of(pages[5]), 30u);
  EXPECT_EQ(callbacks, 30u);
  // The single-sample entry is the n = 1 case and throws the same way.
  const PageId bad = batch[30];
  EXPECT_THROW(sampler.on_sampled_access(1, bad, AccessKind::kRead), std::out_of_range);
  EXPECT_EQ(sampler.peek(1).total(), 30u);
}

}  // namespace
}  // namespace mtat
