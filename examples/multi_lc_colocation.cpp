// Multi-LC co-location: two latency-critical tenants with phase-shifted load
// peaks sharing one fast tier with two best-effort tenants, managed by the
// multi-LC MTAT extension (core/multi_lc_mtat.h — the direction §7 defers to
// future work).
//
// Tenant A (Redis-like) peaks in the first half of the run; tenant B
// (Memcached-like) peaks in the second half. Watch each reservation track
// its own tenant's load while the other stays small — per-tenant agents,
// one shared enforcement plane.
//
//   ./multi_lc_colocation
#include <cstdio>
#include <memory>

#include "core/multi_lc_mtat.h"
#include "loadgen/queue_sim.h"
#include "workloads/be/be_suite.h"
#include "workloads/lc/lc_workload.h"

using namespace mtat;

int main() {
  // Platform: the usual miniature tier pair.
  const TieredMemory::Config mc = TieredMemory::Config::two_tier(
      bytes_to_pages(Bytes{128} * 1024 * 1024),
      bytes_to_pages(Bytes{2} * 1024 * 1024 * 1024));
  TieredMemory mem(mc);
  MigrationEngine engine(mem, {4.0 * 1024 * 1024 * 1024, {}});
  AccessSampler sampler(mem, 1024);

  // Two LC tenants, each sized to roughly half the fast tier.
  LCConfig a_cfg = redis_config();
  a_cfg.n_records = 65'000;
  LCConfig b_cfg = memcached_config();
  b_cfg.n_records = 16'000;
  LCWorkload lc_a(mem, 0, a_cfg, kTierOnly(kFastestTier + 1), 11);
  LCWorkload lc_b(mem, 1, b_cfg, kTierOnly(kFastestTier + 1), 22);
  lc_a.space().set_observer(&sampler);
  lc_b.space().set_observer(&sampler);

  // Two BE tenants fill the rest of the machine.
  std::vector<std::unique_ptr<BEWorkload>> be;
  WorkloadId id = 2;
  for (BEConfig& bc : be_suite(BEScale::kTest, Bytes{120} * 1024 * 1024, 4, 2)) {
    be.push_back(std::make_unique<BEWorkload>(mem, id, bc, kFastestFirst,
                                              &sampler, id * 31));
    ++id;
  }

  PolicyContext ctx;
  ctx.mem = &mem;
  ctx.engine = &engine;
  ctx.sampler = &sampler;
  ctx.tenants = {{0, true}, {1, true}, {2, false}, {3, false}};
  std::vector<BEPerfModel> models;
  for (auto& w : be) {
    BEWorkload* b = w.get();
    models.push_back({[b](std::uint64_t p) { return b->rate_at_pages(p) / b->perf_full(); },
                      b->space().num_pages()});
  }
  MultiLcMtatPolicy policy(ctx, seconds(1),
                           {{0, a_cfg.slo}, {1, b_cfg.slo}}, std::move(models), {});

  // Phase-shifted loads: A ramps early, B ramps late.
  const LoadPattern load_a({{seconds(20), 0.2 * a_cfg.max_load_krps * 1000},
                            {seconds(40), 0.9 * a_cfg.max_load_krps * 1000},
                            {seconds(60), 0.2 * a_cfg.max_load_krps * 1000}});
  const LoadPattern load_b({{seconds(60), 0.2 * b_cfg.max_load_krps * 1000},
                            {seconds(40), 0.9 * b_cfg.max_load_krps * 1000},
                            {seconds(20), 0.2 * b_cfg.max_load_krps * 1000}});
  QueueSim q_a(lc_a, seconds(1), 5), q_b(lc_b, seconds(1), 6);
  q_a.set_pattern(&load_a, 0);
  q_b.set_pattern(&load_b, 0);

  // Drive two passes of the pattern: the first trains the agents, the
  // second is reported.
  const Duration tick = milliseconds(10);
  const Duration span = seconds(120);
  std::printf("%6s %9s %9s | %9s %9s | %7s %7s\n", "t(s)", "A load", "B load", "A p99ms",
              "B p99ms", "A resv", "B resv");
  for (int pass = 0; pass < 2; ++pass) {
    SimTime start = static_cast<SimTime>(pass) * span;
    q_a.set_pattern(&load_a, start);
    q_b.set_pattern(&load_b, start);
    SimTime now = start, next_interval = start + seconds(1);
    while (now < start + span) {
      engine.begin_interval(tick);
      policy.on_tick(now, tick);
      for (auto& w : be) w->tick(tick);
      q_a.run_until(now + tick);
      q_b.run_until(now + tick);
      now += tick;
      if (now >= next_interval) {
        const Duration p99_a = q_a.recorder().collect_interval().percentile(99);
        const Duration p99_b = q_b.recorder().collect_interval().percentile(99);
        policy.report_lc_p99(1, p99_b);
        policy.on_interval(now, seconds(1), p99_a);
        next_interval += seconds(1);
        const auto t = to_seconds(now - start);
        if (pass == 1 && static_cast<int>(t) % 10 == 0)
          std::printf("%6.0f %9.0f %9.0f | %9.2f %9.2f | %7llu %7llu\n", t,
                      load_a.rate_at(now - start), load_b.rate_at(now - start),
                      static_cast<double>(p99_a) / 1e6, static_cast<double>(p99_b) / 1e6,
                      (unsigned long long)policy.lc_quota(0),
                      (unsigned long long)policy.lc_quota(1));
      }
    }
  }
  std::printf("\nA violations: %.2f%%   B violations: %.2f%%\n",
              100.0 * q_a.recorder().violation_rate(),
              100.0 * q_b.recorder().violation_rate());
  std::printf("each reservation tracks its own tenant's phase; the shared enforcement\n"
              "plane keeps the two partitions and the BE remainder isolated throughout.\n");
  return 0;
}
