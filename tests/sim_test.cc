// Integration tests: the co-location simulator end-to-end under every policy,
// the experiment drivers, and cross-module invariants (page conservation,
// metric consistency).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "sim/colocation_sim.h"
#include "sim/experiments.h"
#include "workloads/be/be_suite.h"

namespace mtat {
namespace {

SimConfig tiny_config(PolicyKind policy, int n_be = 2) {
  SimConfig cfg;
  cfg.fmem = 32_MiB;
  cfg.smem = 512_MiB;
  cfg.lc = redis_config();
  cfg.lc.n_records = 30'000;
  cfg.be = be_suite(BEScale::kTest, 36_MiB, 4, n_be);
  cfg.policy = policy;
  return cfg;
}

class AllPolicies : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(AllPolicies, RunsAndProducesConsistentMetrics) {
  SimConfig cfg = tiny_config(GetParam());
  obs::RunContext ctx;
  ColocationSim sim(cfg, &ctx);
  const LoadPattern pat = LoadPattern::constant(cfg.lc.max_load_krps * 1000.0 * 0.5);
  sim.run(pat, seconds(10));
  const SimResult r = sim.result();
  // 10 intervals of series, each internally consistent.
  ASSERT_EQ(r.series.size(), 10u);
  for (const auto& tp : r.series) {
    EXPECT_GE(tp.lc_fmem_ratio, 0.0);
    EXPECT_LE(tp.lc_fmem_ratio, 1.0);
    double share = tp.lc_fmem_share;
    for (double s : tp.be_fmem_share) share += s;
    EXPECT_LE(share, 1.0 + 1e-9);
    ASSERT_EQ(tp.be_throughput.size(), sim.be_count());
  }
  // LC served roughly the offered load (half of max: no policy saturates).
  EXPECT_NEAR(static_cast<double>(r.lc_completed),
              0.5 * cfg.lc.max_load_krps * 1000.0 * 10.0, 0.1 * r.lc_completed + 500);
  // BE metrics populated and bounded.
  ASSERT_EQ(r.be_np.size(), sim.be_count());
  for (double np : r.be_np) {
    EXPECT_GT(np, 0.0);
    EXPECT_LE(np, 1.05);
  }
  EXPECT_GT(r.fairness, 0.0);
  EXPECT_GT(r.be_total_throughput, 0.0);
  // Page conservation after all the churn.
  EXPECT_EQ(sim.mem().used(Tier::kFMem) + sim.mem().used(Tier::kSMem),
            sim.mem().page_count());
}

INSTANTIATE_TEST_SUITE_P(Policies, AllPolicies,
                         ::testing::Values(PolicyKind::kMtatFull, PolicyKind::kMtatLcOnly,
                                           PolicyKind::kMemtis, PolicyKind::kTpp,
                                           PolicyKind::kFmemAll, PolicyKind::kSmemAll,
                                           PolicyKind::kVtmm, PolicyKind::kDamon,
                                           PolicyKind::kMemtisHp),
                         [](const auto& info) { return policy_name(info.param); });

TEST(ColocationSim, RejectsNullRunContext) {
  // The context is required: there is no process-global one to fall back on.
  const SimConfig cfg = tiny_config(PolicyKind::kMemtis);
  EXPECT_THROW(ColocationSim sim(cfg, nullptr), std::invalid_argument);
  obs::RunContext ctx;
  ColocationSim sim(cfg, &ctx);
  sim.run(LoadPattern::constant(cfg.lc.max_load_krps * 1000.0 * 0.3), seconds(2));
  EXPECT_THROW(ColocationSim::restore(sim.snapshot(), nullptr), std::invalid_argument);
}

TEST(ColocationSim, StaticPinsPlaceAsConfigured) {
  {
    obs::RunContext ctx;
    ColocationSim sim(tiny_config(PolicyKind::kFmemAll), &ctx);
    EXPECT_GT(sim.mem().fmem_usage_ratio(0), 0.9);
    EXPECT_EQ(sim.mem().workload_pages(1, Tier::kFMem), 0u);
  }
  {
    obs::RunContext ctx;
    ColocationSim sim(tiny_config(PolicyKind::kSmemAll), &ctx);
    EXPECT_EQ(sim.mem().workload_pages(0, Tier::kFMem), 0u);
    EXPECT_GT(sim.mem().workload_pages(1, Tier::kFMem), 0u);
  }
}

TEST(ColocationSim, MemtisDisplacesIdleLcUnderBePressure) {
  // Figure 2's opening phenomenon at miniature scale.
  SimConfig cfg = tiny_config(PolicyKind::kMemtis);
  obs::RunContext ctx;
  ColocationSim sim(cfg, &ctx);
  EXPECT_GT(sim.mem().fmem_usage_ratio(0), 0.9);  // LC starts resident
  const LoadPattern pat = LoadPattern::constant(cfg.lc.max_load_krps * 100.0);  // 10% load
  sim.run(pat, seconds(10));
  EXPECT_LT(sim.mem().fmem_usage_ratio(0), 0.15);  // ... and gets evicted
}

TEST(ColocationSim, ResetStatsClearsMeasurementOnly) {
  SimConfig cfg = tiny_config(PolicyKind::kMemtis);
  obs::RunContext ctx;
  ColocationSim sim(cfg, &ctx);
  const LoadPattern pat = LoadPattern::constant(1000.0);
  sim.run(pat, seconds(3));
  EXPECT_FALSE(sim.result().series.empty());
  const SimTime t = sim.now();
  sim.reset_stats();
  EXPECT_TRUE(sim.result().series.empty());
  EXPECT_EQ(sim.result().lc_completed, 0u);
  EXPECT_EQ(sim.now(), t);  // simulation state untouched
  sim.run(pat, seconds(2));
  EXPECT_EQ(sim.result().series.size(), 2u);
}

TEST(ColocationSim, UnmeasuredRunRecordsNothing) {
  SimConfig cfg = tiny_config(PolicyKind::kMemtis);
  obs::RunContext ctx;
  ColocationSim sim(cfg, &ctx);
  const LoadPattern pat = LoadPattern::constant(1000.0);
  sim.run(pat, seconds(3), /*measure=*/false);
  EXPECT_TRUE(sim.result().series.empty());
}

TEST(ColocationSim, MtatSharedAgentPersistsLearning) {
  SacConfig sc;
  SacAgent agent(sc);
  SimConfig cfg = tiny_config(PolicyKind::kMtatFull);
  cfg.shared_agent = &agent;
  {
    obs::RunContext ctx;
    ColocationSim sim(cfg, &ctx);
    sim.run(LoadPattern::constant(2000.0), seconds(5), false);
  }
  EXPECT_GE(agent.buffer_size(), 4u);  // transitions outlive the sim
}

TEST(ColocationSim, MigrationBandwidthIsBounded) {
  SimConfig cfg = tiny_config(PolicyKind::kMemtis);
  cfg.migration_bandwidth = 64.0 * 1024 * 1024;  // 64 MB/s
  obs::RunContext ctx;
  ColocationSim sim(cfg, &ctx);
  sim.run(LoadPattern::constant(2000.0), seconds(5));
  EXPECT_LE(sim.result().migration_bytes_per_sec, 64.0 * 1024 * 1024 * 1.05);
}

// -------------------------------------------------------- experiments ----

TEST(Experiments, LatencyCurveShowsTheKnee) {
  LCConfig lc = redis_config();
  lc.n_records = 30'000;
  const auto curve =
      experiments::lc_latency_curve(lc, 1.0, {0.5, 0.9, 1.3}, seconds(10), 3);
  ASSERT_EQ(curve.size(), 3u);
  // Below the knee: low latency, achieved ~= offered. Above: divergence.
  EXPECT_LT(curve[0].p99_ms, static_cast<double>(lc.slo) / 1e6);
  EXPECT_GT(curve[2].p99_ms, curve[0].p99_ms * 10);
  EXPECT_NEAR(curve[0].achieved_krps, curve[0].offered_krps, 0.4);
  EXPECT_LT(curve[2].achieved_krps, curve[2].offered_krps);
}

TEST(Experiments, LessFMemMeansEarlierKnee) {
  LCConfig lc = redis_config();
  lc.n_records = 30'000;
  const std::vector<double> loads = {0.95};
  const auto full = experiments::lc_latency_curve(lc, 1.0, loads, seconds(10), 4);
  const auto none = experiments::lc_latency_curve(lc, 0.0, loads, seconds(10), 4);
  // 95% of max load: fine with full FMem, saturated with none.
  EXPECT_LT(full[0].p99_ms, static_cast<double>(lc.slo) / 1e6);
  EXPECT_GT(none[0].p99_ms, full[0].p99_ms * 3);
}

TEST(Experiments, FindMaxLoadBisectsMonotonePredicate) {
  const double knee = 7.3;
  const double found =
      experiments::find_max_load([&](double krps) { return krps <= knee; }, 1.0, 16.0, 20);
  EXPECT_NEAR(found, knee, 0.01);
  // Unsustainable even at the floor: returns the floor.
  EXPECT_DOUBLE_EQ(experiments::find_max_load([](double) { return false; }, 2.0, 16.0), 2.0);
}

TEST(Experiments, ProbeSloSustainableAgreesWithCapacity) {
  SimConfig cfg = tiny_config(PolicyKind::kFmemAll);
  obs::RunContext ctx;
  ColocationSim sim(cfg, &ctx);
  EXPECT_TRUE(experiments::probe_slo_sustainable(sim, cfg.lc.max_load_krps * 0.5, seconds(2), seconds(6)));
  SimConfig cfg2 = tiny_config(PolicyKind::kFmemAll);
  obs::RunContext sim2_ctx;
  ColocationSim sim2(cfg2, &sim2_ctx);
  EXPECT_FALSE(
      experiments::probe_slo_sustainable(sim2, cfg.lc.max_load_krps * 1.4, seconds(2), seconds(6)));
}

TEST(ColocationSim, VtmmAllocatesProportionallyToHotSets) {
  // vTMM extension: a busy BE tenant measures a large hot set and receives a
  // correspondingly large partition; the near-idle LC tenant keeps only the
  // floor share even though it allocated FMem first.
  SimConfig cfg = tiny_config(PolicyKind::kVtmm);
  obs::RunContext ctx;
  ColocationSim sim(cfg, &ctx);
  const LoadPattern pat = LoadPattern::constant(cfg.lc.max_load_krps * 100.0);  // 10% load
  sim.run(pat, seconds(10));
  const SimResult r = sim.result();
  const auto& last = r.series.back();
  double be_total = 0;
  for (double s : last.be_fmem_share) be_total += s;
  EXPECT_GT(be_total, 0.5);            // BE hot sets dominate
  EXPECT_LT(last.lc_fmem_share, 0.3);  // LC measured nearly cold
}

TEST(BandwidthModel, SaturationInflatesLatency) {
  // §7 extension: with the tier-bandwidth model enabled and SMem capacity set
  // far below the BE demand, SMem accesses slow down and BE throughput drops
  // versus the uncontended run.
  SimConfig cfg = tiny_config(PolicyKind::kSmemAll);
  const LoadPattern pat = LoadPattern::constant(500.0);
  obs::RunContext baseline_ctx;
  ColocationSim baseline(cfg, &baseline_ctx);
  baseline.run(pat, seconds(5));
  cfg.bandwidth.enabled = true;
  cfg.bandwidth.smem_accesses_per_sec = 1e6;  // well under BE demand
  obs::RunContext contended_ctx;
  ColocationSim contended(cfg, &contended_ctx);
  contended.run(pat, seconds(5));
  EXPECT_GT(contended.mem().contention_factor(Tier::kSMem), 1.5);
  EXPECT_LT(contended.result().be_total_throughput,
            0.8 * baseline.result().be_total_throughput);
  // LC requests also slow down: its P99 must be higher under contention.
  EXPECT_GT(contended.result().lc_p99_ms, baseline.result().lc_p99_ms);
}

TEST(BandwidthModel, FactorEdgeCases) {
  BandwidthModel bw;  // saturation 0.8, max_factor 4.0
  EXPECT_DOUBLE_EQ(bandwidth_factor(bw, 0.0), 1.0);
  // Monotone non-decreasing in utilization.
  double prev = 1.0;
  for (double rho = 0.05; rho <= 0.95; rho += 0.05) {
    const double f = bandwidth_factor(bw, rho);
    EXPECT_GE(f, prev);
    EXPECT_LE(f, bw.max_factor);
    prev = f;
  }
  // rho >= 1 clamps at r=0.999: 1/(1-0.8*0.999) ~ 4.98, capped at max_factor.
  EXPECT_DOUBLE_EQ(bandwidth_factor(bw, 1.0), bw.max_factor);
  EXPECT_DOUBLE_EQ(bandwidth_factor(bw, 100.0), bw.max_factor);
  // With a higher cap the clamp itself becomes visible.
  bw.max_factor = 10.0;
  EXPECT_NEAR(bandwidth_factor(bw, 1.0), 1.0 / (1.0 - 0.8 * 0.999), 1e-12);
  EXPECT_DOUBLE_EQ(bandwidth_factor(bw, 1.0), bandwidth_factor(bw, 2.0));
  // saturation = 0 disables inflation at any utilization; the factor is also
  // floored at 1 so it can never *speed up* a tier.
  bw.saturation = 0.0;
  EXPECT_DOUBLE_EQ(bandwidth_factor(bw, 0.9), 1.0);
  bw.saturation = 0.8;
  EXPECT_DOUBLE_EQ(bandwidth_factor(bw, -0.5), 1.0);
}

TEST(BandwidthModel, EwmaFactorConvergesUnderConstantLoad) {
  // The per-tick EWMA (damping 0.1) must approach the contention fixed point
  // smoothly: sampled via the "bw.smem_factor" gauge, successive steps shrink
  // and the factor stays inside [1, max_factor].
  SimConfig cfg = tiny_config(PolicyKind::kSmemAll);
  cfg.bandwidth.enabled = true;
  cfg.bandwidth.smem_accesses_per_sec = 1e6;  // well under BE demand
  obs::RunContext ctx;
  ColocationSim sim(cfg, &ctx);
  const LoadPattern pat = LoadPattern::constant(500.0);
  std::vector<double> samples;
  for (int i = 0; i < 10; ++i) {
    sim.run(pat, milliseconds(50), /*measure=*/false);  // 5 ticks per sample
    const obs::Gauge* g = sim.metrics().find_gauge("bw.smem_factor");
    ASSERT_NE(g, nullptr);
    samples.push_back(g->value());
  }
  for (double v : samples) {
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, cfg.bandwidth.max_factor);
  }
  EXPECT_GT(samples.back(), 1.5);  // saturated tier really inflates
  // Damped convergence: the first step dominates, later steps die out.
  // (Demand is elastic in latency, so the tail keeps drifting slightly — the
  // fixed point moves with the inflated demand; bound it loosely.)
  const double first_step = std::abs(samples[1] - samples[0]);
  const double last_step = std::abs(samples[9] - samples[8]);
  EXPECT_LT(last_step, 0.5 * first_step);
  EXPECT_LT(last_step, 0.05);
  // ... and the tail is settled: last three samples agree to within 2%.
  EXPECT_NEAR(samples[9], samples[7], 0.02 * samples[9]);
}

TEST(BandwidthModel, UncontendedTiersKeepBaseLatency) {
  SimConfig cfg = tiny_config(PolicyKind::kFmemAll);
  cfg.bandwidth.enabled = true;  // generous default capacities
  cfg.bandwidth.fmem_accesses_per_sec = 1e12;
  cfg.bandwidth.smem_accesses_per_sec = 1e12;
  obs::RunContext ctx;
  ColocationSim sim(cfg, &ctx);
  sim.run(LoadPattern::constant(500.0), seconds(3));
  EXPECT_NEAR(sim.mem().contention_factor(Tier::kFMem), 1.0, 1e-3);
  EXPECT_NEAR(sim.mem().contention_factor(Tier::kSMem), 1.0, 1e-3);
}

TEST(PolicyName, CoversAllKinds) {
  EXPECT_STREQ(policy_name(PolicyKind::kMtatFull), "mtat_full");
  EXPECT_STREQ(policy_name(PolicyKind::kMtatLcOnly), "mtat_lc_only");
  EXPECT_STREQ(policy_name(PolicyKind::kMemtis), "memtis");
  EXPECT_STREQ(policy_name(PolicyKind::kTpp), "tpp");
  EXPECT_STREQ(policy_name(PolicyKind::kFmemAll), "fmem_all");
  EXPECT_STREQ(policy_name(PolicyKind::kSmemAll), "smem_all");
  EXPECT_STREQ(policy_name(PolicyKind::kVtmm), "vtmm");
  EXPECT_STREQ(policy_name(PolicyKind::kDamon), "damon");
  EXPECT_STREQ(policy_name(PolicyKind::kMemtisHp), "memtis_hp");
}

}  // namespace
}  // namespace mtat
