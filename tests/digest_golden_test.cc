// Bit-exact output gate: short smoke runs whose SimResult/ClusterResult
// digests must equal the lines committed in tests/goldens/digests.txt.
//
// The CSV goldens print about ten significant digits and the determinism
// tests compare the tree with itself, so neither notices a change in the low
// bits of a simulated value. These digests cover every simulated bit. A
// refactor that claims "output unchanged" must leave this file untouched; a
// deliberate output change rewrites the affected lines (the failure message
// prints the actual line) in a change that names the re-baseline.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "cluster/cluster_sim.h"
#include "faults/cluster_fault_plan.h"
#include "faults/fault_plan.h"
#include "mem/topology.h"
#include "obs/names.h"
#include "sim/colocation_sim.h"
#include "workloads/be/be_suite.h"

namespace mtat {
namespace {

std::map<std::string, std::string> load_goldens() {
  std::map<std::string, std::string> out;
  std::ifstream in(MTAT_DIGEST_GOLDENS);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, digest;
    fields >> name >> digest;
    out[name] = digest;
  }
  return out;
}

void expect_golden(const std::string& name, std::uint64_t digest) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);
  const std::map<std::string, std::string> goldens = load_goldens();
  const auto it = goldens.find(name);
  if (it == goldens.end()) {
    ADD_FAILURE() << "no line for " << name << " in " << MTAT_DIGEST_GOLDENS
                  << "; actual line:\n" << name << " " << hex;
    return;
  }
  EXPECT_EQ(it->second, hex) << name << " simulated differently; actual line:\n"
                             << name << " " << hex;
}

double counter(const obs::RunContext& ctx, const char* name) {
  const obs::Counter* c = ctx.metrics().find_counter(name);
  return c != nullptr ? c->value() : 0.0;
}

/// A small two-tier node (32 MiB FMem) with two BE tenants and the
/// bandwidth model on, so the contention fixed point runs every tick.
SimConfig node_config(PolicyKind policy) {
  SimConfig cfg;
  cfg.fmem = 32_MiB;
  cfg.smem = 512_MiB;
  cfg.lc = redis_config();
  cfg.lc.n_records = 30'000;
  cfg.be = be_suite(BEScale::kTest, 36_MiB, 4, 2);
  cfg.policy = policy;
  cfg.bandwidth.enabled = true;
  cfg.seed = 20240806;
  return cfg;
}

std::uint64_t run_node(const SimConfig& cfg, const LoadPattern& pattern, Duration len,
                       obs::RunContext& ctx) {
  ColocationSim sim(cfg, &ctx);
  sim.run(pattern, len);
  return sim.result().digest();
}

double max_rps(const SimConfig& cfg) { return cfg.lc.max_load_krps * 1000.0; }

TEST(DigestGolden, MemtisZipfianKeys) {
  SimConfig cfg = node_config(PolicyKind::kMemtis);
  cfg.lc.dist = RequestDist::kZipfian;
  obs::RunContext ctx;
  expect_golden("memtis_zipf",
                run_node(cfg, LoadPattern::constant(0.7 * max_rps(cfg)), seconds(6), ctx));
}

TEST(DigestGolden, MtatFullShortTrapezoid) {
  SimConfig cfg = node_config(PolicyKind::kMtatFull);
  // Quarter-second intervals and an early first update, so SAC trains,
  // PP-M decides and PP-E migrates many times within a few seconds.
  cfg.interval = milliseconds(250);
  cfg.mtat.ppm.sac.min_buffer_for_update = 8;
  cfg.mtat.ppm.sac.batch_size = 16;
  const double peak = 0.9 * max_rps(cfg);
  LoadPattern trapezoid({{seconds(2), 0.2 * peak},
                         {seconds(2), 0.6 * peak},
                         {seconds(3), peak},
                         {seconds(2), 0.6 * peak},
                         {seconds(2), 0.2 * peak}});
  obs::RunContext ctx;
  expect_golden("mtat_full_trapezoid",
                run_node(cfg, trapezoid, trapezoid.total_length(), ctx));
  EXPECT_GT(counter(ctx, obs::names::kRlUpdates), 0) << "SAC never trained";
  EXPECT_GT(counter(ctx, obs::names::kMigrationPagesMoved), 0) << "PP-E never migrated";
}

TEST(DigestGolden, ThreeTierTopology) {
  SimConfig cfg = node_config(PolicyKind::kMemtis);
  cfg.tiers = *parse_topology("dram:32M:73;cxl:128M:202:2G;nvm:512M:450:1G");
  obs::RunContext ctx;
  expect_golden("three_tier",
                run_node(cfg, LoadPattern::constant(0.6 * max_rps(cfg)), seconds(6), ctx));
}

TEST(DigestGolden, NodeUnderStorm) {
  const SimConfig cfg = node_config(PolicyKind::kMtatFull);
  obs::RunContext ctx;
  ctx.install_faults(*faults::FaultPlan::from_spec("storm:0.5"));
  expect_golden("node_storm_0.5",
                run_node(cfg, LoadPattern::constant(0.6 * max_rps(cfg)), seconds(6), ctx));
  EXPECT_GT(counter(ctx, obs::names::kFaultSamplesDropped), 0) << "the storm injected nothing";
}

TEST(DigestGolden, TwoEpochFaultedFleet) {
  cluster::ClusterConfig cc;
  cc.nodes = 6;
  cc.tenants = 18;
  cc.node = node_config(PolicyKind::kMemtis);
  cc.node.be = be_suite(BEScale::kTest, 36_MiB, 4, 1);
  cc.node_capacity_krps = 6.0;
  cc.settle = milliseconds(500);
  cc.probe_window = seconds(1);
  cc.measure_window = seconds(1);
  faults::ClusterFaultPlan plan = faults::ClusterFaultPlan::storm(1.0);
  plan.epochs = 2;
  plan.storm_epochs = 2;
  cc.faults = plan;
  obs::RunContext ctx;
  cluster::ClusterSim sim(cc, &ctx);
  const cluster::ClusterResult r = sim.run(*cluster::make_bin_packing_placement());
  ASSERT_EQ(r.epochs.size(), 2u);
  EXPECT_GT(r.node_crashes + r.node_stragglers + r.node_blackouts, 0)
      << "the storm injected nothing, so this config no longer covers the failure domain";
  expect_golden("fleet_storm_2_epochs", r.digest());
}

}  // namespace
}  // namespace mtat
