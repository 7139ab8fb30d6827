// Checkpoint/restore determinism (DESIGN.md §17): a ColocationSim snapshot is
// its config plus the op journal, and restore() replays that journal into a
// fresh instance. Under the determinism contract the replay must reconstruct
// the sim bit-exactly: continuing a restored sim produces the same SimResult,
// the same metric registry (minus wall-time metrics), the same structural
// fingerprint, and the same PageHotness bin-page sequences as the original
// running uninterrupted. This is the property the cluster warm-restart path
// leans on — a crashed node replays its checkpoint and must rejoin the fleet
// indistinguishable from a node that never crashed.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/mtat_policy.h"
#include "obs/names.h"
#include "policy/memtis_policy.h"
#include "sim/colocation_sim.h"
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
  cfg.seed = 20240807;
  return cfg;
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

// Same structural dump as determinism_test.cc: comparing bin-page *sequences*
// catches iteration-order divergence that identical aggregates would hide.
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

void expect_identical_checkpoints(const SimCheckpoint& a, const SimCheckpoint& b) {
  EXPECT_EQ(a.config.seed, b.config.seed);
  EXPECT_EQ(a.config.policy, b.config.policy);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind);
    EXPECT_EQ(a.ops[i].duration, b.ops[i].duration);
    EXPECT_EQ(a.ops[i].measure, b.ops[i].measure);
  }
  EXPECT_EQ(a.replay_time(), b.replay_time());
}

class CheckpointRestore : public ::testing::TestWithParam<PolicyKind> {};

// The headline guarantee: settle -> reset -> snapshot -> restore -> measure
// equals the same history run uninterrupted in one instance. Everything is
// compared — results, registries, structural fingerprint, bin sequences.
TEST_P(CheckpointRestore, ContinuationIsBitIdenticalToUninterruptedRun) {
  const SimConfig cfg = tiny_config(GetParam());
  const LoadPattern pat = LoadPattern::constant(cfg.lc.max_load_krps * 1000.0 * 0.5);

  obs::RunContext uninterrupted_ctx;
  ColocationSim uninterrupted(cfg, &uninterrupted_ctx);
  uninterrupted.run(pat, seconds(6), /*measure=*/false);
  uninterrupted.reset_stats();
  uninterrupted.run(pat, seconds(8));

  obs::RunContext original_ctx;
  ColocationSim original(cfg, &original_ctx);
  original.run(pat, seconds(6), /*measure=*/false);
  original.reset_stats();
  const SimCheckpoint cp = original.snapshot();
  obs::RunContext restored_ctx;
  const std::unique_ptr<ColocationSim> restored = ColocationSim::restore(cp, &restored_ctx);
  // The restored instance must already match the snapshotted one...
  EXPECT_EQ(original.fingerprint(), restored->fingerprint());
  // ...and continuing it must match the uninterrupted reference bit for bit.
  restored->run(pat, seconds(8));
  expect_identical_results(uninterrupted.result(), restored->result());
  expect_identical_registries(uninterrupted.metrics(), restored->metrics());
  EXPECT_EQ(uninterrupted.fingerprint(), restored->fingerprint());
  const std::vector<std::string> fp_a = sim_hotness_fingerprints(uninterrupted);
  const std::vector<std::string> fp_b = sim_hotness_fingerprints(*restored);
  ASSERT_FALSE(fp_a.empty()) << "policy exposes no histogram to fingerprint";
  EXPECT_EQ(fp_a, fp_b);
}

INSTANTIATE_TEST_SUITE_P(Policies, CheckpointRestore,
                         ::testing::Values(PolicyKind::kMtatFull, PolicyKind::kMemtis),
                         [](const auto& info) { return policy_name(info.param); });

// Replayed ops re-enter the new journal, so checkpoints survive repeated
// crash/restore cycles without drifting: snapshot(restore(cp)) == cp.
TEST(CheckpointTest, RestoredSimsOwnSnapshotEqualsTheOriginal) {
  const SimConfig cfg = tiny_config(PolicyKind::kMemtis);
  const LoadPattern pat = LoadPattern::constant(cfg.lc.max_load_krps * 1000.0 * 0.4);
  obs::RunContext ctx;
  ColocationSim sim(cfg, &ctx);
  sim.run(pat, seconds(3), /*measure=*/false);
  sim.reset_stats();
  sim.run(pat, seconds(4));
  const SimCheckpoint cp = sim.snapshot();
  obs::RunContext restored_ctx;
  const std::unique_ptr<ColocationSim> restored = ColocationSim::restore(cp, &restored_ctx);
  expect_identical_checkpoints(cp, restored->snapshot());
}

TEST(CheckpointTest, JournalRecordsEveryOpAndReplayTimeSumsRuns) {
  const SimConfig cfg = tiny_config(PolicyKind::kMemtis);
  const LoadPattern pat = LoadPattern::constant(cfg.lc.max_load_krps * 1000.0 * 0.4);
  obs::RunContext ctx;
  ColocationSim sim(cfg, &ctx);
  EXPECT_TRUE(sim.snapshot().ops.empty());  // construction is not journaled
  sim.run(pat, seconds(3), /*measure=*/false);
  sim.reset_stats();
  sim.run(pat, seconds(4));
  const SimCheckpoint cp = sim.snapshot();
  ASSERT_EQ(cp.ops.size(), 3u);
  EXPECT_EQ(cp.ops[0].kind, SimCheckpoint::Op::Kind::kRun);
  EXPECT_FALSE(cp.ops[0].measure);
  EXPECT_EQ(cp.ops[1].kind, SimCheckpoint::Op::Kind::kResetStats);
  EXPECT_EQ(cp.ops[2].kind, SimCheckpoint::Op::Kind::kRun);
  EXPECT_TRUE(cp.ops[2].measure);
  EXPECT_EQ(cp.replay_time(), seconds(7));  // reset_stats costs no sim time
}

// The cluster bench's warm-vs-cold distinction only means something if a
// replayed checkpoint is actually different from a cold boot: the warm node
// resumes with its hot pages promoted, the cold one pays the flood.
TEST(CheckpointTest, WarmRestoreIsDistinguishableFromColdBoot) {
  const SimConfig cfg = tiny_config(PolicyKind::kMemtis);
  const LoadPattern pat = LoadPattern::constant(cfg.lc.max_load_krps * 1000.0 * 0.5);

  obs::RunContext warmed_ctx;
  ColocationSim warmed(cfg, &warmed_ctx);
  warmed.run(pat, seconds(6), /*measure=*/false);
  warmed.reset_stats();
  obs::RunContext warm_ctx;
  const std::unique_ptr<ColocationSim> warm =
      ColocationSim::restore(warmed.snapshot(), &warm_ctx);

  obs::RunContext cold_ctx;
  ColocationSim cold(cfg, &cold_ctx);  // straight into traffic, no settle
  EXPECT_NE(warm->fingerprint(), cold.fingerprint());
  warm->run(pat, seconds(8));
  cold.run(pat, seconds(8));
  // The flood is literal: the cold node spends the measured window promoting
  // the hot set the warm node already holds, and serves less because of it.
  EXPECT_GT(cold.result().migration_bytes_per_sec,
            warm->result().migration_bytes_per_sec);
  EXPECT_NE(warm->result().lc_completed, cold.result().lc_completed);
  EXPECT_NE(warm->fingerprint(), cold.fingerprint());
}

}  // namespace
}  // namespace mtat
