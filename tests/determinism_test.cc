// Seed-determinism regression: two ColocationSim runs with identical configs
// and seeds must be bit-identical — same SimResult, same metric registries.
// This is the property the mtat_lint `nondet` rule exists to protect; the test
// catches what a banned-token scan cannot (e.g. iteration over a container
// with nondeterministic order feeding a decision).
//
// The only sanctioned exception is the wall-clock domain: policy wall time is
// measured with steady_clock on the host, so "*wall*" metrics (and the
// SimResult field derived from them) legitimately differ between runs.
// obs::names::is_wall_time_metric() names exactly that set.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/mtat_policy.h"
#include "obs/names.h"
#include "policy/memtis_policy.h"
#include "sim/colocation_sim.h"
#include "sim/experiments.h"
#include "telemetry/page_hotness.h"
#include "workloads/be/be_suite.h"

namespace mtat {
namespace {

SimConfig tiny_config(PolicyKind policy) {
  SimConfig cfg;
  cfg.fmem = 32_MiB;
  cfg.smem = 512_MiB;
  cfg.lc = redis_config();
  cfg.lc.n_records = 30'000;
  cfg.be = be_suite(BEScale::kTest, 36_MiB, 4, 2);
  cfg.policy = policy;
  cfg.bandwidth.enabled = true;  // the contention fixed point must replay too
  cfg.seed = 20240806;
  return cfg;
}

SimResult run_once(const SimConfig& cfg, obs::MetricsRegistry** registry_out,
                   ColocationSim& sim) {
  const LoadPattern pat = LoadPattern::constant(cfg.lc.max_load_krps * 1000.0 * 0.5);
  sim.run(pat, seconds(8));
  *registry_out = &sim.metrics();
  return sim.result();
}

void expect_identical_results(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    const TimePoint& x = a.series[i];
    const TimePoint& y = b.series[i];
    EXPECT_EQ(x.t_sec, y.t_sec) << "interval " << i;
    EXPECT_EQ(x.offered_rps, y.offered_rps) << "interval " << i;
    EXPECT_EQ(x.lc_p99_ms, y.lc_p99_ms) << "interval " << i;
    EXPECT_EQ(x.lc_throughput_rps, y.lc_throughput_rps) << "interval " << i;
    EXPECT_EQ(x.lc_fmem_ratio, y.lc_fmem_ratio) << "interval " << i;
    EXPECT_EQ(x.lc_fmem_share, y.lc_fmem_share) << "interval " << i;
    EXPECT_EQ(x.be_fmem_share, y.be_fmem_share) << "interval " << i;
    EXPECT_EQ(x.be_throughput, y.be_throughput) << "interval " << i;
  }
  EXPECT_EQ(a.lc_p99_ms, b.lc_p99_ms);
  EXPECT_EQ(a.slo_violation_rate, b.slo_violation_rate);
  EXPECT_EQ(a.lc_completed, b.lc_completed);
  EXPECT_EQ(a.be_rate, b.be_rate);
  EXPECT_EQ(a.be_np, b.be_np);
  EXPECT_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.be_total_throughput, b.be_total_throughput);
  EXPECT_EQ(a.be_mean_np, b.be_mean_np);
  EXPECT_EQ(a.migration_bytes_per_sec, b.migration_bytes_per_sec);
  // a.policy_wall_us_per_interval is host wall time — exempt by design.
}

void expect_identical_registries(const obs::MetricsRegistry& a,
                                 const obs::MetricsRegistry& b) {
  for (const char* name : obs::names::kAllMetricNames) {
    if (obs::names::is_wall_time_metric(name)) continue;
    SCOPED_TRACE(name);
    const obs::Counter* ca = a.find_counter(name);
    const obs::Counter* cb = b.find_counter(name);
    ASSERT_EQ(ca == nullptr, cb == nullptr);
    if (ca != nullptr) {
      EXPECT_EQ(ca->value(), cb->value());
    }
    const obs::Gauge* ga = a.find_gauge(name);
    const obs::Gauge* gb = b.find_gauge(name);
    ASSERT_EQ(ga == nullptr, gb == nullptr);
    if (ga != nullptr) {
      EXPECT_EQ(ga->value(), gb->value());
    }
    const obs::Histogram* ha = a.find_histogram(name);
    const obs::Histogram* hb = b.find_histogram(name);
    ASSERT_EQ(ha == nullptr, hb == nullptr);
    if (ha != nullptr) {
      EXPECT_EQ(ha->count(), hb->count());
      EXPECT_EQ(ha->mean(), hb->mean());
      EXPECT_EQ(ha->min(), hb->min());
      EXPECT_EQ(ha->max(), hb->max());
      EXPECT_EQ(ha->percentile(99.0), hb->percentile(99.0));
    }
  }
}

// Full structural dump of one histogram: tracked/epoch plus every (tier, bin)
// page sequence in bin order. Comparing the *sequences* — not just sizes —
// is what catches iteration-order nondeterminism in the SoA bin vectors:
// pulls and aging observe pages in exactly this order, so any divergence here
// eventually becomes a divergent migration decision.
std::string hotness_fingerprint(const PageHotness& h) {
  std::ostringstream os;
  os << "tracked=" << h.tracked_pages() << " epoch=" << h.age_epoch();
  for (std::size_t t = 0; t < h.tier_count(); ++t) {
    for (int b = 0; b < PageHotness::kBins; ++b) {
      const std::vector<PageId>& v = h.bin_pages(static_cast<TierId>(t), b);
      if (v.empty()) continue;
      os << " " << t << ":" << b << "=";
      for (PageId p : v) os << p << ",";
    }
  }
  return os.str();
}

// Every histogram a sim's policy maintains, in a fixed order. MemtisPolicy
// holds one unified histogram; MtatPolicy holds one per tenant inside PP-E.
std::vector<std::string> sim_hotness_fingerprints(ColocationSim& sim) {
  std::vector<std::string> out;
  if (auto* memtis = dynamic_cast<MemtisPolicy*>(&sim.policy())) {
    out.push_back(hotness_fingerprint(memtis->histogram()));
  } else if (auto* mtat = dynamic_cast<MtatPolicy*>(&sim.policy())) {
    PartitionEnforcer& ppe = mtat->ppe();
    for (std::size_t i = 0; i < ppe.histogram_count(); ++i) {
      out.push_back(hotness_fingerprint(ppe.histogram(i)));
    }
  }
  return out;
}

class SameSeedRuns : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(SameSeedRuns, AreBitIdentical) {
  const SimConfig cfg = tiny_config(GetParam());
  obs::RunContext sim1_ctx;
  ColocationSim sim1(cfg, &sim1_ctx);
  obs::RunContext sim2_ctx;
  ColocationSim sim2(cfg, &sim2_ctx);
  obs::MetricsRegistry* reg1 = nullptr;
  obs::MetricsRegistry* reg2 = nullptr;
  const SimResult r1 = run_once(cfg, &reg1, sim1);
  const SimResult r2 = run_once(cfg, &reg2, sim2);
  expect_identical_results(r1, r2);
  expect_identical_registries(*reg1, *reg2);

  // The histogram internals must replay too — identical end results with
  // divergent bin state would mean a latent nondeterminism waiting for a
  // longer run to surface it.
  const std::vector<std::string> fp1 = sim_hotness_fingerprints(sim1);
  const std::vector<std::string> fp2 = sim_hotness_fingerprints(sim2);
  ASSERT_FALSE(fp1.empty()) << "policy exposes no histogram to fingerprint";
  EXPECT_EQ(fp1, fp2);
}

// kMtatFull exercises the full stack (SAC updates, PP-M/PP-E, migration);
// kMemtis covers the frequency-threshold baseline path.
INSTANTIATE_TEST_SUITE_P(Policies, SameSeedRuns,
                         ::testing::Values(PolicyKind::kMtatFull, PolicyKind::kMemtis),
                         [](const auto& info) { return policy_name(info.param); });

// A different seed must actually change behaviour — otherwise the test above
// would pass trivially with the seed being ignored.
TEST(SameSeedRuns, DifferentSeedDiverges) {
  SimConfig cfg = tiny_config(PolicyKind::kMtatFull);
  obs::RunContext sim1_ctx;
  ColocationSim sim1(cfg, &sim1_ctx);
  cfg.seed = 999;
  obs::RunContext sim2_ctx;
  ColocationSim sim2(cfg, &sim2_ctx);
  const LoadPattern pat = LoadPattern::constant(cfg.lc.max_load_krps * 1000.0 * 0.5);
  sim1.run(pat, seconds(8));
  sim2.run(pat, seconds(8));
  EXPECT_NE(sim1.result().lc_p99_ms, sim2.result().lc_p99_ms);
}

// The ParallelRunner determinism contract (DESIGN.md §11) extended down to
// histogram internals: a fleet of sims run with jobs=1 (the serial reference
// path, MTAT_JOBS=1) and jobs=4 must produce bit-identical results AND
// bit-identical bin-occupancy dumps. Worker scheduling must never leak into
// the SoA bin order.
TEST(JobCountInvariance, HotnessStateMatchesAcrossJobsOneAndFour) {
  struct Probe {
    SimResult result;
    std::vector<std::string> hotness;
  };
  const auto run_fleet = [](int jobs) {
    const PolicyKind kinds[] = {PolicyKind::kMemtis, PolicyKind::kMtatFull};
    std::vector<Probe> probes(std::size(kinds));
    std::vector<experiments::RunSpec> specs;
    for (std::size_t i = 0; i < std::size(kinds); ++i) {
      specs.push_back({policy_name(kinds[i]), [&probes, &kinds, i](obs::RunContext& ctx) {
                         SimConfig cfg = tiny_config(kinds[i]);
                         ColocationSim sim(cfg, &ctx);
                         const LoadPattern pat =
                             LoadPattern::constant(cfg.lc.max_load_krps * 1000.0 * 0.5);
                         sim.run(pat, seconds(4));
                         probes[i] = {sim.result(), sim_hotness_fingerprints(sim)};
                       }});
    }
    experiments::ParallelRunner runner(jobs);
    obs::RunContext parent;
    runner.run_all(specs, parent);
    return probes;
  };
  const std::vector<Probe> serial = run_fleet(1);
  const std::vector<Probe> parallel = run_fleet(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    expect_identical_results(serial[i].result, parallel[i].result);
    ASSERT_FALSE(serial[i].hotness.empty());
    EXPECT_EQ(serial[i].hotness, parallel[i].hotness);
  }
}

}  // namespace
}  // namespace mtat
