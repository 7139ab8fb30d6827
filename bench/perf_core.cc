// Microbenchmark: single-node hot-path throughput (the perf trajectory).
//
// Rates the simulator's per-operation hot paths against host wall time:
// ColocationSim steps/s, AccessSampler sample-ingest/s, PageHotness
// record+age and hottest/coldest-pull ops/s, MigrationEngine migrations/s,
// and SAC inferences/s. Each microbench runs one untimed warmup repetition
// plus `reps` timed ones and reports the best repetition (min wall) — the
// standard guard against scheduler noise inflating a regression.
//
// Unlike the per-figure benches, results APPEND: every run adds one entry
// (label from MTAT_PERF_LABEL, default "run") to BENCH_core.json in the
// working directory, so the committed file is a same-machine trajectory of
// the tree's performance over time. tools/perf_diff compares entries and
// gates on regressions (DESIGN.md §14). An existing file that does not parse
// is a loud error, never overwritten.
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

// Defeats dead-code elimination of the measured loops' results. Ownership:
// single-threaded bench driver, write-only, value never read back.
volatile std::uint64_t g_sink = 0;  // mtat-lint: allow(shared-mutable)

struct PerfSizes {
  std::uint64_t pages;       ///< tracked working set of the telemetry benches
  std::uint64_t records;     ///< record_access / sample-ingest ops per rep
  std::uint64_t pull_iters;  ///< hottest+coldest pull pairs per rep
  std::uint64_t migrations;  ///< promote/demote pairs per rep
  std::uint64_t inferences;  ///< SAC act() calls per rep
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
    s.sim_len = seconds(20);
    s.reps = 5;
    s.sim_reps = 2;
  } else if (preset == "smoke") {
    s.pages = 1u << 14;
    s.records = 1u << 18;
    s.pull_iters = 1u << 11;
    s.migrations = 1u << 14;
    s.inferences = 1u << 11;
    s.sim_len = seconds(2);
    s.reps = 2;
    s.sim_reps = 1;
  } else {
    s.pages = 1u << 17;
    s.records = 1u << 21;
    s.pull_iters = 1u << 14;
    s.migrations = 1u << 17;
    s.inferences = 1u << 14;
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
    g_sink = g_sink + hist.tracked_pages();
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
  return rate(s.pull_iters * per_iter, s.reps, true, [&] {
    for (std::uint64_t i = 0; i < s.pull_iters; ++i) {
      const auto hot = hist.hottest_in_tier(kFastestTier + 1, batch);
      const auto cold = hist.coldest_in_tier(kFastestTier, batch);
      g_sink = g_sink + hot.size() + cold.size();
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
  return rate(s.records, s.reps, true, [&] {
    for (std::uint64_t i = 0; i < s.records; ++i) {
      const PageId p = idx[i];
      sampler.on_sampled_access(mem.owner_of(p), p,
                                (i & 3) == 0 ? AccessKind::kWrite : AccessKind::kRead);
    }
    g_sink = g_sink + sampler.peek(0).total();
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
  return rate(s.migrations * 2, s.reps, true, [&] {
    for (std::uint64_t i = 0; i < s.migrations; ++i) {
      if (eng.budget_pages() < 2) eng.begin_interval(seconds(1));
      const PageId p = all[i % ring];
      eng.promote(p);
      eng.demote(p);
    }
    g_sink = g_sink + mem.total_migrations();
  });
}

/// SAC actor inference (deterministic act()), the PP-M decide hot path.
double bench_sac_inference(const PerfSizes& s) {
  SacConfig cfg;
  SacAgent agent(cfg);
  const std::vector<double> state = {0.5, 0.6, 0.3};
  return rate(s.inferences, s.reps, true, [&] {
    double acc = 0;
    for (std::uint64_t i = 0; i < s.inferences; ++i)
      acc += agent.act(state, /*deterministic=*/true)[0];
    g_sink = g_sink + static_cast<std::uint64_t>(acc * 0);
  });
}

/// End-to-end simulator throughput: ticks/s of a co-located MEMTIS run (the
/// histogram-centric policy — every sample hits the PageHotness hot path).
double bench_sim_steps(const PerfSizes& s, obs::RunContext& ctx) {
  SimConfig cfg;
  cfg.fmem = 32_MiB;
  cfg.smem = 512_MiB;
  cfg.lc = redis_config();
  cfg.lc.n_records = 30'000;
  cfg.be = be_suite(BEScale::kTest, 36_MiB, 4, 2);
  cfg.policy = PolicyKind::kMemtis;
  cfg.bandwidth.enabled = true;
  cfg.seed = 20240806;
  ColocationSim sim(cfg, &ctx);
  const LoadPattern pat = LoadPattern::constant(cfg.lc.max_load_krps * 1000.0 * 0.5);
  const std::uint64_t steps = s.sim_len / cfg.tick;
  return rate(steps, s.sim_reps, false, [&] { sim.run(pat, s.sim_len); });
}

}  // namespace

int main() {
  const std::string preset = scale_preset_from_env();
  RootContext root = banner("perf_core", "microbench: single-node hot-path ops/s trajectory");
  const PerfSizes s = sizes_for(preset);

  PerfEntry entry;
  entry.label = Env::get().perf_label;
  entry.scale = preset;
  std::printf("%-36s %14s\n", "metric", "ops/s");
  const auto run_one = [&](const char* name, double value) {
    entry.metrics.emplace_back(name, value);
    std::printf("%-36s %14.0f\n", name, value);
  };
  run_one(obs::names::kPerfHotnessRecordAgePerSec, bench_hotness_record_age(s));
  run_one(obs::names::kPerfHotnessPullPerSec, bench_hotness_pull(s));
  run_one(obs::names::kPerfSamplerIngestPerSec, bench_sampler_ingest(s));
  run_one(obs::names::kPerfMigrationsPerSec, bench_migrations(s));
  run_one(obs::names::kPerfSacInferencePerSec, bench_sac_inference(s));
  run_one(obs::names::kPerfSimStepsPerSec, bench_sim_steps(s, root));

  return append_perf_trajectory("BENCH_core.json", "perf_core", std::move(entry)) ? 0 : 1;
}
