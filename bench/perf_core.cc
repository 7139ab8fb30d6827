// Microbenchmark: single-node hot-path throughput (the perf trajectory).
//
// Rates the simulator's per-operation hot paths against host wall time:
// ColocationSim steps/s, AccessSampler sample-ingest/s, PageHotness
// record+age and hottest/coldest-pull ops/s, MigrationEngine migrations/s,
// and SAC inferences/s. A second, policy lane rates PP-M's training: SAC
// minibatch updates/s and the steps/s of an MTAT (Full) run. Each
// microbench runs one untimed warmup repetition plus `reps` timed ones and
// reports the best repetition (min wall) — the standard guard against
// scheduler noise inflating a regression.
//
// Unlike the per-figure benches, results APPEND: every run adds one entry
// (label from MTAT_PERF_LABEL, default "run") to BENCH_core.json and one to
// BENCH_policy.json in the working directory, so the committed files are
// same-machine trajectories of the tree's performance over time. Each file
// keeps one fixed metric set, which tools/perf_diff requires to compare
// entries and gate on regressions (DESIGN.md §14). An existing file that
// does not parse is a loud error, never overwritten.
//
// Wall timings use steady_clock and are machine-dependent — this bench
// tracks the simulator's own speed, not the paper's metrics.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/perf_trajectory.h"
#include "mem/migration_engine.h"
#include "obs/names.h"
#include "rl/sac.h"
#include "telemetry/access_sampler.h"
#include "telemetry/page_hotness.h"

using namespace mtat;
using namespace mtat::bench;

namespace {

struct PerfSizes {
  std::uint64_t pages;       ///< tracked working set of the telemetry benches
  std::uint64_t records;     ///< record_access / sample-ingest ops per rep
  std::uint64_t pull_iters;  ///< hottest+coldest pull pairs per rep
  std::uint64_t migrations;  ///< promote/demote pairs per rep
  std::uint64_t inferences;  ///< SAC act() calls per rep
  std::uint64_t updates;     ///< SAC update(1) calls per rep
  Duration sim_len;          ///< simulated time per sim-steps rep
  int reps;                  ///< timed repetitions (best-of)
  int sim_reps;              ///< timed repetitions of the (slow) sim bench
};

PerfSizes sizes_for(const std::string& preset) {
  PerfSizes s;
  if (preset == "large") {
    s.pages = 1u << 20;
    s.records = 1u << 23;
    s.pull_iters = 1u << 16;
    s.migrations = 1u << 19;
    s.inferences = 1u << 15;
    s.updates = 1024;
    s.sim_len = seconds(20);
    s.reps = 5;
    s.sim_reps = 2;
  } else if (preset == "smoke") {
    s.pages = 1u << 14;
    s.records = 1u << 18;
    s.pull_iters = 1u << 11;
    s.migrations = 1u << 14;
    s.inferences = 1u << 11;
    s.updates = 16;
    s.sim_len = seconds(2);
    s.reps = 2;
    s.sim_reps = 1;
  } else {
    s.pages = 1u << 17;
    s.records = 1u << 21;
    s.pull_iters = 1u << 14;
    s.migrations = 1u << 17;
    s.inferences = 1u << 14;
    s.updates = 256;
    s.sim_len = seconds(10);
    s.reps = 5;
    s.sim_reps = 2;
  }
  return s;
}

/// Best-of-reps ops/s for `fn` (one untimed warmup unless warmup == false).
double rate(std::uint64_t ops_per_rep, int reps, bool warmup,
            const std::function<void()>& fn) {
  if (warmup) fn();
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return static_cast<double>(ops_per_rep) / best;
}

TieredMemory::Config mem_config(std::uint64_t pages) {
  TieredMemory::Config cfg =
      TieredMemory::Config::two_tier(pages / 2 + 1, pages);
  return cfg;
}

/// PageHotness record+age: skewed sampled accesses over a seeded working
/// set — 90% of records land on a pages/16 hot set, the rest are uniform —
/// with an aging pass every records/8 ops (so the aging rotation is part of
/// the measured mix, as it is in a real run). The skew matches what the
/// histogram actually ingests: PEBS-like sample streams follow the
/// workloads' concentrated access profiles, so hot pages accumulate counts
/// whose increments mostly stay within their (doubling-width) bin.
double bench_hotness_record_age(const PerfSizes& s) {
  TieredMemory mem(mem_config(s.pages));
  mem.allocate(0, s.pages, kFastestFirst);
  PageHotness hist(mem);
  hist.seed_allocated_pages();
  Rng rng(2024);
  std::vector<PageId> idx(s.records);
  const std::uint64_t hot_set = s.pages / 16;
  for (auto& p : idx)
    p = static_cast<PageId>(rng.next_below(10) < 9 ? rng.next_below(hot_set)
                                                   : rng.next_below(s.pages));
  const std::uint64_t age_every = s.records / 8;
  volatile std::uint64_t sink = 0;  // keeps the measured loop's result live
  return rate(s.records, s.reps, true, [&] {
    // Countdown rather than `i % age_every`: a 64-bit modulo by a runtime
    // divisor costs more than the record itself and would dominate the loop.
    std::uint64_t until_age = age_every;
    for (std::uint64_t i = 0; i < s.records; ++i) {
      hist.record_access(0, idx[i]);
      if (--until_age == 0) {
        hist.age();
        until_age = age_every;
      }
    }
    sink = sink + hist.tracked_pages();
  });
}

/// Hottest/coldest pulls from a populated histogram (the per-tick policy
/// read path: MEMTIS pulls promotion/demotion candidate batches).
double bench_hotness_pull(const PerfSizes& s) {
  TieredMemory mem(mem_config(s.pages));
  mem.allocate(0, s.pages, kFastestFirst);
  PageHotness hist(mem);
  hist.seed_allocated_pages();
  Rng rng(7);
  for (std::uint64_t i = 0; i < s.pages * 4; ++i)
    hist.record_access(0, static_cast<PageId>(rng.next_below(s.pages)));
  const std::size_t batch = 64;
  // Pulls are const reads: every iteration returns the same page count, so
  // the op count per rep is fixed and computable up front.
  const std::uint64_t per_iter = hist.hottest_in_tier(kFastestTier + 1, batch).size() +
                                 hist.coldest_in_tier(kFastestTier, batch).size();
  volatile std::uint64_t sink = 0;  // keeps the measured loop's result live
  return rate(s.pull_iters * per_iter, s.reps, true, [&] {
    for (std::uint64_t i = 0; i < s.pull_iters; ++i) {
      const auto hot = hist.hottest_in_tier(kFastestTier + 1, batch);
      const auto cold = hist.coldest_in_tier(kFastestTier, batch);
      sink = sink + hot.size() + cold.size();
    }
  });
}

/// AccessSampler ingest: the full per-sample path — tier classification,
/// interval counters, and the PageHotness sink fan-out.
double bench_sampler_ingest(const PerfSizes& s) {
  TieredMemory mem(mem_config(s.pages));
  mem.allocate(0, s.pages / 2, kFastestFirst);
  mem.allocate(1, s.pages / 2, kFastestFirst);
  AccessSampler sampler(mem, 199);
  PageHotness hist(mem);
  hist.seed_allocated_pages();
  sampler.add_sink(&hist);
  Rng rng(11);
  const std::uint64_t total = (s.pages / 2) * 2;
  std::vector<PageId> idx(s.records);
  for (auto& p : idx) p = static_cast<PageId>(rng.next_below(total));
  volatile std::uint64_t sink = 0;  // keeps the measured loop's result live
  return rate(s.records, s.reps, true, [&] {
    for (std::uint64_t i = 0; i < s.records; ++i) {
      const PageId p = idx[i];
      sampler.on_sampled_access(mem.owner_of(p), p,
                                (i & 3) == 0 ? AccessKind::kWrite : AccessKind::kRead);
    }
    sink = sink + sampler.peek(0).total();
  });
}

/// MigrationEngine promote/demote round trips, with a PageHotness listener
/// attached so the measured path includes the telemetry's migration hook.
double bench_migrations(const PerfSizes& s) {
  TieredMemory mem(mem_config(s.pages));
  mem.allocate(0, s.pages, kTierOnly(kFastestTier + 1));
  PageHotness hist(mem);
  hist.seed_allocated_pages();
  MigrationEngine::Config eng_cfg;
  eng_cfg.bandwidth_bytes_per_sec = 64.0 * 1024 * 1024 * 1024;
  MigrationEngine eng(mem, eng_cfg);
  const std::vector<PageId>& all = mem.pages_of(0);
  const std::size_t ring = std::min<std::size_t>(all.size(), 1024);
  volatile std::uint64_t sink = 0;  // keeps the measured loop's result live
  return rate(s.migrations * 2, s.reps, true, [&] {
    for (std::uint64_t i = 0; i < s.migrations; ++i) {
      if (eng.budget_pages() < 2) eng.begin_interval(seconds(1));
      const PageId p = all[i % ring];
      eng.promote(p);
      eng.demote(p);
    }
    sink = sink + mem.total_migrations();
  });
}

/// SAC actor inference (deterministic act()), the PP-M decide hot path.
double bench_sac_inference(const PerfSizes& s) {
  SacConfig cfg;
  SacAgent agent(cfg);
  const std::vector<double> state = {0.5, 0.6, 0.3};
  volatile double sink = 0;  // keeps the measured loop's result live
  return rate(s.inferences, s.reps, true, [&] {
    double acc = 0;
    for (std::uint64_t i = 0; i < s.inferences; ++i)
      acc += agent.act(state, /*deterministic=*/true)[0];
    sink = sink + acc;
  });
}

/// SAC training (PP-M's Algorithm 1 inner step): update(1) runs one
/// 64-sample minibatch through the critic, actor and temperature updates, on
/// a replay buffer already filled with seeded transitions.
double bench_sac_updates(const PerfSizes& s) {
  SacConfig cfg;
  SacAgent agent(cfg);
  Rng rng(31);
  const auto draw = [&] { return rng.next_double() * 2.0 - 1.0; };
  for (int i = 0; i < 1000; ++i)
    agent.observe({draw(), draw(), draw()}, {draw()}, draw(), {draw(), draw(), draw()},
                  /*done=*/i % 50 == 49);
  volatile double sink = 0;  // keeps the measured loop's result live
  return rate(s.updates, s.reps, true, [&] {
    for (std::uint64_t i = 0; i < s.updates; ++i) agent.update(1);
    sink = sink + agent.last_critic_loss();
  });
}

/// The co-located node every sim-steps lane runs, under `policy`.
SimConfig lane_sim_config(PolicyKind policy) {
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

LoadPattern lane_load(const SimConfig& cfg) {
  return LoadPattern::constant(cfg.lc.max_load_krps * 1000.0 * 0.5);
}

/// End-to-end simulator throughput: ticks/s of a co-located MEMTIS run (the
/// histogram-centric policy — every sample hits the PageHotness hot path).
double bench_sim_steps(const PerfSizes& s, obs::RunContext& ctx) {
  const SimConfig cfg = lane_sim_config(PolicyKind::kMemtis);
  ColocationSim sim(cfg, &ctx);
  const LoadPattern pat = lane_load(cfg);
  const std::uint64_t steps = s.sim_len / cfg.tick;
  return rate(steps, s.sim_reps, false, [&] { sim.run(pat, s.sim_len); });
}

/// The same node under MTAT (Full): PP-M decides and trains its SAC agent
/// every interval. An untimed 60 s warm-up first fills the replay buffer
/// past the 50 transitions the first update needs, so every timed interval
/// trains.
double bench_mtat_sim_steps(const PerfSizes& s, obs::RunContext& ctx) {
  const SimConfig cfg = lane_sim_config(PolicyKind::kMtatFull);
  ColocationSim sim(cfg, &ctx);
  const LoadPattern pat = lane_load(cfg);
  sim.run(pat, seconds(60), /*measure=*/false);
  const std::uint64_t steps = s.sim_len / cfg.tick;
  return rate(steps, s.sim_reps, false, [&] { sim.run(pat, s.sim_len); });
}

}  // namespace

int main() {
  const std::string preset = scale_preset_from_env();
  RootContext root = banner("perf_core", "microbench: single-node hot-path ops/s trajectory");
  const PerfSizes s = sizes_for(preset);

  PerfEntry core{Env::get().perf_label, preset, {}};
  PerfEntry policy{Env::get().perf_label, preset, {}};
  std::printf("%-36s %14s\n", "metric", "ops/s");
  const auto run_one = [](PerfEntry& entry, const char* name, double value) {
    entry.metrics.emplace_back(name, value);
    std::printf("%-36s %14.0f\n", name, value);
  };
  run_one(core, obs::names::kPerfHotnessRecordAgePerSec, bench_hotness_record_age(s));
  run_one(core, obs::names::kPerfHotnessPullPerSec, bench_hotness_pull(s));
  run_one(core, obs::names::kPerfSamplerIngestPerSec, bench_sampler_ingest(s));
  run_one(core, obs::names::kPerfMigrationsPerSec, bench_migrations(s));
  run_one(core, obs::names::kPerfSacInferencePerSec, bench_sac_inference(s));
  run_one(core, obs::names::kPerfSimStepsPerSec, bench_sim_steps(s, root));
  run_one(policy, obs::names::kPerfSacUpdatesPerSec, bench_sac_updates(s));
  run_one(policy, obs::names::kPerfMtatSimStepsPerSec, bench_mtat_sim_steps(s, root));

  const bool core_ok = append_perf_trajectory("BENCH_core.json", "perf_core", std::move(core));
  const bool policy_ok =
      append_perf_trajectory("BENCH_policy.json", "perf_core", std::move(policy));
  return core_ok && policy_ok ? 0 : 1;
}
