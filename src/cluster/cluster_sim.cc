#include "cluster/cluster_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/digest.h"
#include "obs/names.h"

namespace mtat::cluster {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
/// Assignment sentinel for a tenant the failover machinery has queued (no
/// node this epoch). Healthy runs never produce it.
constexpr std::size_t kUnplaced = std::numeric_limits<std::size_t>::max();

double gauge_value(const obs::RunContext& ctx, const char* name) {
  const obs::Gauge* g = ctx.metrics().find_gauge(name);
  return g != nullptr ? g->value() : kNan;
}

/// Fast-tier occupancy of a measured node run, in percent of FMem capacity:
/// the LC share plus every BE share from the last recorded interval.
double node_fmem_util_pct(const SimResult& r) {
  if (r.series.empty()) return 0.0;
  const TimePoint& tp = r.series.back();
  double share = tp.lc_fmem_share;
  for (double s : tp.be_fmem_share) share += s;
  return 100.0 * share;
}

}  // namespace

/// Per-node fleet-side failover bookkeeping, owned by run() and touched by
/// the node shard only through its own disjoint entry (checkpoint read,
/// fresh_checkpoint write) — never across nodes, so shards stay shared-nothing.
struct ClusterSim::NodeFailover {
  // Outage state.
  bool down = false;
  int down_until = 0;         ///< epoch index at which the node restarts
  bool cold_pending = false;  ///< next boot skips settle (cold-page flood)
  // This epoch's injected condition (reset every epoch).
  bool straggler = false;
  bool blacked_out = false;
  // Deterministic checkpoint: the journal the node replays on a warm start.
  // A straggler epoch is never checkpointed — its history ran under an
  // in-node storm, so the node resumes from its last clean checkpoint.
  SimCheckpoint checkpoint;
  bool has_checkpoint = false;
  SimCheckpoint fresh_checkpoint;  ///< written by the shard this epoch
  bool fresh_valid = false;
  // Watchdog ladder (suspect_after misses down, readmit_after exports up).
  int missed_exports = 0;
  int clean_exports = 0;
  bool suspected = false;
  // Last telemetry the cluster actually received (stale across blackouts).
  double p99_ms = kNan;
  double slo_violation_pct = kNan;
  double fmem_util_pct = kNan;
};

/// Per-tenant failover bookkeeping: the evacuation/backoff protocol state.
struct ClusterSim::TenantFailover {
  bool queued = false;  ///< unplaceable last attempt; waiting out the backoff
  int backoff = 0;      ///< current backoff, epochs (doubles up to the cap)
  int retry_at = 0;     ///< first epoch the queued tenant may retry
  std::size_t last_node = kUnplaced;  ///< previous epoch's placement
};

ClusterSim::ClusterSim(const ClusterConfig& cfg, obs::RunContext* ctx) : cfg_(cfg), ctx_(ctx) {
  if (ctx_ == nullptr) throw std::invalid_argument("ClusterSim: null RunContext");
  if (cfg_.nodes <= 0) throw std::invalid_argument("ClusterSim: nodes must be positive");
  if (cfg_.tenants < 0) throw std::invalid_argument("ClusterSim: negative tenant count");
  if (cfg_.tenants == 0) cfg_.tenants = 4 * cfg_.nodes;

  // Everything stochastic is drawn here, in a fixed order, from cfg.seed:
  // tenant demands and footprints (tenant order), per-node sim seeds (node
  // order), then the placement stream seed. Policies therefore compete on an
  // identical fleet and tenant population, and nothing downstream depends on
  // which worker simulates which shard.
  Rng seeder(cfg_.seed);
  const double fleet_capacity_krps =
      static_cast<double>(cfg_.nodes) * cfg_.node_capacity_krps;
  std::vector<double> weights(static_cast<std::size_t>(cfg_.tenants));
  double weight_sum = 0;
  for (double& w : weights) {
    w = seeder.next_exponential(1.0);  // heavy-ish spread: a few hot tenants
    weight_sum += w;
  }
  tenants_.reserve(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    TenantStream t;
    t.name = "tenant-" + std::to_string(i);
    t.demand_krps =
        cfg_.target_utilization * fleet_capacity_krps * weights[i] / weight_sum;
    const double spread = 0.25 + 1.5 * seeder.next_double();  // x0.25 .. x1.75
    t.footprint = static_cast<Bytes>(cfg_.footprint_mean_fraction * spread *
                                     static_cast<double>(cfg_.node.fmem));
    tenants_.push_back(std::move(t));
  }
  node_seeds_.reserve(static_cast<std::size_t>(cfg_.nodes));
  for (int n = 0; n < cfg_.nodes; ++n) node_seeds_.push_back(seeder.next_u64());
  placement_seed_ = seeder.next_u64();

  obs::MetricsRegistry& reg = ctx_->metrics();
  reg.gauge(obs::names::kClusterNodes).set(static_cast<double>(cfg_.nodes));
  reg.gauge(obs::names::kClusterTenants).set(static_cast<double>(cfg_.tenants));
}

std::vector<NodeState> ClusterSim::fresh_states() const {
  std::vector<NodeState> states(static_cast<std::size_t>(cfg_.nodes));
  for (int n = 0; n < cfg_.nodes; ++n) {
    NodeState& s = states[static_cast<std::size_t>(n)];
    s.node_id = n;
    s.fmem_capacity = cfg_.node.fmem;
    s.capacity_krps = cfg_.node_capacity_krps;
    s.p99_ms = kNan;
    s.slo_violation_pct = kNan;
    s.fmem_util_pct = kNan;
  }
  return states;
}

std::vector<NodeResult> ClusterSim::run_epoch(const std::vector<std::size_t>& assignment,
                                              Duration window,
                                              experiments::ParallelRunner* runner,
                                              std::vector<NodeFailover>* failover,
                                              const faults::ClusterFaultPlan* plan) {
  // Fold the routed tenants into per-node demand on the calling thread, in
  // tenant order, before any worker starts.
  std::vector<NodeResult> out(static_cast<std::size_t>(cfg_.nodes));
  for (int n = 0; n < cfg_.nodes; ++n) out[static_cast<std::size_t>(n)].node_id = n;
  for (std::size_t t = 0; t < assignment.size(); ++t) {
    if (assignment[t] == kUnplaced) continue;  // queued: routed nowhere this epoch
    NodeResult& nr = out[assignment[t]];
    nr.offered_krps += tenants_[t].demand_krps;
    nr.assigned_footprint += tenants_[t].footprint;
    nr.tenants += 1;
  }

  std::vector<experiments::RunSpec> specs;
  specs.reserve(out.size());
  const bool keep_metrics = cfg_.keep_node_metrics;
  const Duration settle = cfg_.settle;
  for (NodeResult& nr : out) {
    NodeFailover* f =
        failover != nullptr ? &(*failover)[static_cast<std::size_t>(nr.node_id)] : nullptr;
    if (f != nullptr && f->down) {
      // Crashed: no shard at all. The routed demand stays in the NodeResult
      // and is counted as violated by the aggregation.
      nr.ran = false;
      nr.p99_ms = kNan;
      nr.slo_violation_pct = kNan;
      nr.fmem_util_pct = kNan;
      continue;
    }
    const double straggle =
        (f != nullptr && f->straggler && plan != nullptr) ? plan->straggler_intensity : 0.0;
    specs.push_back(
        {"node" + std::to_string(nr.node_id) + "@" + std::to_string(nr.offered_krps) + "krps",
         [this, &nr, f, straggle, settle, window, keep_metrics](obs::RunContext& ctx) {
           // A straggler runs its whole epoch — checkpoint replay included —
           // under an in-node fault storm; the epoch is not checkpointed.
           if (straggle > 0.0) ctx.install_faults(faults::FaultPlan::storm(straggle));
           std::unique_ptr<ColocationSim> sim;
           bool bootstrap = true;
           if (f != nullptr && f->has_checkpoint) {
             // Continuing node or warm restart: bit-exact state replay.
             sim = ColocationSim::restore(f->checkpoint, &ctx);
             bootstrap = false;
           } else {
             SimConfig ncfg = cfg_.node;
             ncfg.seed = node_seeds_[static_cast<std::size_t>(nr.node_id)];
             sim = std::make_unique<ColocationSim>(ncfg, &ctx);
             // Cold restart: straight into traffic with every page cold.
             if (f != nullptr && f->cold_pending) bootstrap = false;
           }
           const LoadPattern pattern = LoadPattern::constant(nr.offered_krps * 1000.0);
           if (bootstrap && settle > 0) sim->run(pattern, settle, /*measure=*/false);
           sim->reset_stats();
           sim->run(pattern, window, /*measure=*/true);
           nr.sim = sim->result();

           // Export the node's health through its own metrics registry —
           // these gauges are the telemetry the cluster-level balancer sees;
           // NodeResult reads them back from the registry rather than from
           // the SimResult so the flow is the one production would have.
           obs::MetricsRegistry& reg = ctx.metrics();
           reg.gauge(obs::names::kClusterNodeP99Ms).set(nr.sim.lc_p99_ms);
           reg.gauge(obs::names::kClusterNodeSloViolationPct)
               .set(100.0 * nr.sim.slo_violation_rate);
           reg.gauge(obs::names::kClusterNodeFmemUtilPct).set(node_fmem_util_pct(nr.sim));
           reg.gauge(obs::names::kClusterNodeOfferedRps).set(nr.offered_krps * 1000.0);
           reg.gauge(obs::names::kClusterNodeTenants).set(static_cast<double>(nr.tenants));
           nr.p99_ms = gauge_value(ctx, obs::names::kClusterNodeP99Ms);
           nr.slo_violation_pct = gauge_value(ctx, obs::names::kClusterNodeSloViolationPct);
           nr.fmem_util_pct = gauge_value(ctx, obs::names::kClusterNodeFmemUtilPct);
           if (keep_metrics) {
             std::ostringstream dump;
             ctx.metrics().write_csv(dump);
             nr.metrics_csv = dump.str();
           }
           if (f != nullptr) {
             f->fresh_checkpoint = sim->snapshot();
             f->fresh_valid = true;
           }
         }});
  }

  if (runner != nullptr) {
    runner->run_all(specs, *ctx_);
  } else {
    // Serial reference path: a one-job runner executes every spec inline on
    // this thread through the exact same per-spec-context machinery, so the
    // serial and fanned paths cannot drift.
    experiments::ParallelRunner serial(1);
    serial.run_all(specs, *ctx_);
  }

  obs::MetricsRegistry& reg = ctx_->metrics();
  reg.counter(obs::names::kClusterRounds).inc();
  double offered = 0;
  for (const NodeResult& nr : out) offered += nr.offered_krps;
  ctx_->trace().instant(obs::names::kEvClusterRound, obs::names::kCatSim, "nodes",
                        static_cast<double>(cfg_.nodes), "offered_krps", offered);
  return out;
}

ClusterResult ClusterSim::run(const PlacementPolicy& policy,
                              experiments::ParallelRunner* runner) {
  // An unset or inert plan keeps the classic structure: exactly two epochs
  // (probe then measured), every node boots fresh and settles, no failover
  // bookkeeping is even allocated, and — critically — no code below draws
  // from any RNG or touches any metric the two-round implementation did not,
  // so healthy output stays byte-identical to the pre-failure-domain sim.
  const bool active = cfg_.faults.has_value() && cfg_.faults->any();
  const faults::ClusterFaultPlan plan =
      active ? *cfg_.faults : faults::ClusterFaultPlan{};
  const int epochs = active ? std::max(2, plan.epochs) : 2;
  std::optional<faults::ClusterFaultInjector> injector;
  std::unique_ptr<PlacementPolicy> bin_rung;
  std::unique_ptr<PlacementPolicy> random_rung;
  std::vector<NodeFailover> fo;
  std::vector<TenantFailover> tf;
  if (active) {
    injector.emplace(plan);
    bin_rung = make_bin_packing_placement();
    random_rung = make_random_placement();
    fo.resize(static_cast<std::size_t>(cfg_.nodes));
    tf.resize(tenants_.size());
  }

  obs::MetricsRegistry& reg = ctx_->metrics();
  ClusterResult r;
  std::vector<std::size_t> prev_assignment;
  std::vector<NodeResult> prev_results;
  int total_moved = 0;
  int ladder_mode = 0;          // 0 native, 1 bin-packing, 2 random
  double epoch_sim_seconds = 0;  // active-plan node_sim_seconds accounting

  for (int e = 0; e < epochs; ++e) {
    const Duration window = e == epochs - 1 ? cfg_.measure_window : cfg_.probe_window;
    const double window_s = to_seconds(window);

    // --- fault injection (cluster thread, node-id order) ---------------------
    if (active) {
      for (int n = 0; n < cfg_.nodes; ++n) {
        NodeFailover& f = fo[static_cast<std::size_t>(n)];
        f.straggler = false;
        f.blacked_out = false;
        f.fresh_valid = false;
        if (f.down && e >= f.down_until) {
          f.down = false;
          if (plan.warm_restart && f.has_checkpoint) {
            ++r.warm_restarts;
            reg.counter(obs::names::kClusterFailoverWarmRestarts).inc();
          } else if (!plan.warm_restart) {
            // Cold restart: forget everything. The node boots fresh and goes
            // straight into traffic — the cold-page flood.
            f.checkpoint = SimCheckpoint{};
            f.has_checkpoint = false;
            f.cold_pending = true;
            ++r.cold_restarts;
            reg.counter(obs::names::kClusterFailoverColdRestarts).inc();
          }
          // Warm plan but no checkpoint yet (crashed before the first epoch
          // completed): a plain fresh boot with settle, counted as neither.
        }
        if (f.down) continue;  // still in the outage: no draws for this node
        if (injector->crash_node(e)) {
          f.down = true;
          f.down_until = e + std::max(1, plan.outage_epochs);
          ++r.node_crashes;
          reg.counter(obs::names::kFaultNodeCrashes).inc();
          ctx_->trace().instant(obs::names::kEvNodeFault, obs::names::kCatSim, "node",
                                static_cast<double>(n), "kind", /*crash=*/0.0);
          continue;  // crash wins: no straggler/blackout draw this epoch
        }
        if (injector->straggle_node(e)) {
          f.straggler = true;
          ++r.node_stragglers;
          reg.counter(obs::names::kFaultNodeStragglers).inc();
          ctx_->trace().instant(obs::names::kEvNodeFault, obs::names::kCatSim, "node",
                                static_cast<double>(n), "kind", /*straggler=*/1.0);
        }
        if (injector->blackout_node(e)) {
          f.blacked_out = true;
          ++r.node_blackouts;
          reg.counter(obs::names::kFaultNodeBlackouts).inc();
          ctx_->trace().instant(obs::names::kEvNodeFault, obs::names::kCatSim, "node",
                                static_cast<double>(n), "kind", /*blackout=*/2.0);
        }
      }
    }

    // --- candidate node states with last epoch's telemetry -------------------
    std::vector<NodeState> all = fresh_states();
    if (e > 0) {
      if (!active) {
        for (const NodeResult& nr : prev_results) {
          NodeState& s = all[static_cast<std::size_t>(nr.node_id)];
          s.p99_ms = nr.p99_ms;
          s.slo_violation_pct = nr.slo_violation_pct;
          s.fmem_util_pct = nr.fmem_util_pct;
        }
      } else {
        // Active path: the balancer sees what the watchdog received, which
        // goes stale across blackouts and outages rather than vanishing.
        for (int n = 0; n < cfg_.nodes; ++n) {
          NodeState& s = all[static_cast<std::size_t>(n)];
          const NodeFailover& f = fo[static_cast<std::size_t>(n)];
          s.p99_ms = f.p99_ms;
          s.slo_violation_pct = f.slo_violation_pct;
          s.fmem_util_pct = f.fmem_util_pct;
        }
      }
    }
    std::vector<NodeState> states;
    if (!active) {
      states = std::move(all);
    } else {
      // Suspected nodes are fenced out of placement — that is the evacuation
      // mechanism. If the watchdog suspects the whole fleet, fence nothing:
      // routing somewhere beats dropping everything.
      for (const NodeState& s : all)
        if (!fo[static_cast<std::size_t>(s.node_id)].suspected) states.push_back(s);
      if (states.empty()) states = std::move(all);
    }

    // --- degradation ladder (telemetry-aware placement only) -----------------
    const PlacementPolicy* effective = &policy;
    if (active && e > 0 && std::string(policy.name()) == "telemetry") {
      int blind = 0;
      for (const NodeState& s : states)
        if (fo[static_cast<std::size_t>(s.node_id)].missed_exports > 0) ++blind;
      const double coverage =
          states.empty() ? 0.0 : static_cast<double>(blind) / static_cast<double>(states.size());
      int mode = 0;
      if (coverage >= plan.degrade_random_coverage)
        mode = 2;
      else if (coverage >= plan.degrade_bin_packing_coverage)
        mode = 1;
      if (mode != ladder_mode) {
        ladder_mode = mode;
        reg.gauge(obs::names::kClusterFailoverPlacementMode)
            .set(static_cast<double>(ladder_mode));
        ctx_->trace().instant(obs::names::kEvClusterFailover, obs::names::kCatSim, "epoch",
                              static_cast<double>(e), "placement_mode",
                              static_cast<double>(ladder_mode));
      }
    }
    if (ladder_mode == 1) effective = bin_rung.get();
    if (ladder_mode == 2) effective = random_rung.get();

    // --- placement (tenant order) with admission control ---------------------
    Rng rng(e == 0 ? placement_seed_
                   : placement_seed_ ^ (0xC1D5'7E11'5EEDull * static_cast<std::uint64_t>(e)));
    std::vector<std::size_t> assignment(tenants_.size(), kUnplaced);
    double placed = 0;
    int queued_now = 0;
    int evacuated = 0;
    double queued_krps = 0;
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      const TenantStream& tenant = tenants_[t];
      if (active && tf[t].queued && e < tf[t].retry_at) {
        ++queued_now;  // still waiting out the backoff
        queued_krps += tenant.demand_krps;
        continue;
      }
      if (active && tf[t].queued) {
        ++r.failover_retries;
        reg.counter(obs::names::kClusterFailoverRetries).inc();
      }
      std::size_t chosen = effective->place(tenant, states, rng);
      if (chosen >= states.size())
        throw std::logic_error(std::string("PlacementPolicy ") + effective->name() +
                               " returned node index out of range");
      if (active) {
        TenantFailover& tfo = tf[t];
        if (states[chosen].projected_utilization(tenant.demand_krps) >
            plan.admission_max_utilization) {
          // Refused: fall back to the least-loaded candidate (ties to the
          // lowest node id via strict <).
          std::size_t best = 0;
          double best_util = std::numeric_limits<double>::infinity();
          for (std::size_t i = 0; i < states.size(); ++i) {
            const double u = states[i].projected_utilization(tenant.demand_krps);
            if (u < best_util) {
              best_util = u;
              best = i;
            }
          }
          if (best_util > plan.admission_max_utilization) {
            // Nowhere to land: queue with capped exponential backoff. Never
            // silently dropped — the lost demand is charged to compliance.
            const int cap = std::max(1, plan.max_backoff_epochs);
            tfo.backoff = tfo.backoff == 0 ? 1 : std::min(2 * tfo.backoff, cap);
            tfo.retry_at = e + tfo.backoff;
            if (tfo.last_node != kUnplaced &&
                fo[tfo.last_node].suspected) {
              ++evacuated;  // evacuated off a suspected node, landing pending
              ++r.evacuations;
              reg.counter(obs::names::kClusterFailoverEvacuations).inc();
            }
            tfo.queued = true;
            tfo.last_node = kUnplaced;
            ++queued_now;
            queued_krps += tenant.demand_krps;
            continue;
          }
          chosen = best;
        }
        const std::size_t node_id = static_cast<std::size_t>(states[chosen].node_id);
        if (tfo.last_node != kUnplaced && tfo.last_node != node_id &&
            fo[tfo.last_node].suspected) {
          ++evacuated;
          ++r.evacuations;
          reg.counter(obs::names::kClusterFailoverEvacuations).inc();
        }
        tfo.queued = false;
        tfo.backoff = 0;
        tfo.last_node = node_id;
        assignment[t] = node_id;
      } else {
        assignment[t] = static_cast<std::size_t>(states[chosen].node_id);
      }
      NodeState& s = states[chosen];
      s.assigned_krps += tenant.demand_krps;
      s.assigned_footprint += tenant.footprint;
      s.tenants += 1;
      placed += 1;
    }
    reg.counter(obs::names::kClusterPlacements).inc(placed);

    // --- rebalance accounting ------------------------------------------------
    if (e > 0) {
      for (std::size_t t = 0; t < assignment.size(); ++t)
        if (prev_assignment[t] != kUnplaced && assignment[t] != kUnplaced &&
            prev_assignment[t] != assignment[t])
          ++total_moved;
    }
    prev_assignment = assignment;

    // --- simulate the epoch --------------------------------------------------
    std::vector<NodeResult> results = run_epoch(assignment, window, runner,
                                                active ? &fo : nullptr,
                                                active ? &plan : nullptr);

    // --- checkpoint merge + simulated-time accounting (active only) ----------
    if (active) {
      for (int n = 0; n < cfg_.nodes; ++n) {
        NodeFailover& f = fo[static_cast<std::size_t>(n)];
        if (f.down) continue;
        // What this node actually simulated: checkpoint replay or settle
        // (cold restarts get neither), plus the epoch window.
        epoch_sim_seconds += window_s;
        if (f.has_checkpoint)
          epoch_sim_seconds += to_seconds(f.checkpoint.replay_time());
        else if (!f.cold_pending)
          epoch_sim_seconds += to_seconds(cfg_.settle);
        f.cold_pending = false;
        // A straggler epoch ran under an in-node storm; keep the last clean
        // checkpoint so a later warm restart replays uncontaminated history.
        if (f.fresh_valid && !f.straggler) {
          f.checkpoint = std::move(f.fresh_checkpoint);
          f.has_checkpoint = true;
        }
      }
    }

    // --- health watchdog (missed-export hysteresis) --------------------------
    int alive = cfg_.nodes;
    int crashed_now = 0, straggler_now = 0, blackout_now = 0, suspected_now = 0;
    if (active) {
      alive = 0;
      for (int n = 0; n < cfg_.nodes; ++n) {
        NodeFailover& f = fo[static_cast<std::size_t>(n)];
        const NodeResult& nr = results[static_cast<std::size_t>(n)];
        const bool exported = !f.down && !f.blacked_out;
        if (exported) {
          f.p99_ms = nr.p99_ms;
          f.slo_violation_pct = nr.slo_violation_pct;
          f.fmem_util_pct = nr.fmem_util_pct;
          f.missed_exports = 0;
          ++f.clean_exports;
          if (f.suspected && f.clean_exports >= plan.readmit_after) {
            f.suspected = false;
            ctx_->trace().instant(obs::names::kEvClusterFailover, obs::names::kCatSim,
                                  "node", static_cast<double>(n), "suspected", 0.0);
          }
        } else {
          f.clean_exports = 0;
          ++f.missed_exports;
          if (!f.suspected && f.missed_exports >= plan.suspect_after) {
            f.suspected = true;
            ctx_->trace().instant(obs::names::kEvClusterFailover, obs::names::kCatSim,
                                  "node", static_cast<double>(n), "suspected", 1.0);
          }
        }
        if (f.down)
          ++crashed_now;
        else
          ++alive;
        if (f.straggler) ++straggler_now;
        if (f.blacked_out) ++blackout_now;
        if (f.suspected) ++suspected_now;
      }
      reg.gauge(obs::names::kClusterFailoverSuspectedNodes)
          .set(static_cast<double>(suspected_now));
      reg.gauge(obs::names::kClusterFailoverQueuedTenants)
          .set(static_cast<double>(queued_now));
    }

    // --- per-epoch fleet series ----------------------------------------------
    EpochStats es;
    es.epoch = e;
    es.window_s = window_s;
    es.alive_nodes = alive;
    es.crashed_nodes = crashed_now;
    es.straggler_nodes = straggler_now;
    es.blackout_nodes = blackout_now;
    es.suspected_nodes = suspected_now;
    es.evacuated_tenants = evacuated;
    es.queued_tenants = queued_now;
    es.placement_mode = ladder_mode;
    double ereq = 0, eviol = 0, ecomp = 0;
    for (const NodeResult& nr : results) {
      es.offered_krps += nr.offered_krps;
      if (nr.ran) {
        const double reqs = static_cast<double>(nr.sim.lc_completed);
        ereq += reqs;
        eviol += nr.sim.slo_violation_rate * reqs;
        ecomp += reqs;
      } else {
        // Demand routed to a dead node: every one of those requests failed.
        const double lost = nr.offered_krps * 1000.0 * window_s;
        ereq += lost;
        eviol += lost;
      }
    }
    if (queued_krps > 0) {
      // Queued tenants' demand was never served; charge it as violated.
      es.offered_krps += queued_krps;
      const double lost = queued_krps * 1000.0 * window_s;
      ereq += lost;
      eviol += lost;
    }
    es.completed_krps = ecomp / window_s / 1000.0;
    es.slo_compliance_pct = ereq > 0 ? 100.0 * (1.0 - eviol / ereq) : 100.0;
    r.epochs.push_back(es);
    if (active)
      ctx_->trace().instant(obs::names::kEvClusterEpoch, obs::names::kCatSim, "epoch",
                            static_cast<double>(e), "slo_compliance_pct",
                            es.slo_compliance_pct);
    prev_results = std::move(results);
  }

  r.nodes = std::move(prev_results);
  r.rebalanced_tenants = total_moved;

  // Fleet aggregates over the final (measured) epoch, folded in node-id
  // order. Down-node and still-queued demand is charged as violated, so a
  // policy cannot improve its compliance by losing servers or tenants.
  double requests = 0, violations = 0, completed = 0, util_sum = 0;
  const double measure_s = to_seconds(cfg_.measure_window);
  int ran_nodes = 0;
  std::vector<double> p99s;
  p99s.reserve(r.nodes.size());
  for (const NodeResult& nr : r.nodes) {
    r.offered_krps += nr.offered_krps;
    if (!nr.ran) {
      const double lost = nr.offered_krps * 1000.0 * measure_s;
      requests += lost;
      violations += lost;
      continue;
    }
    ++ran_nodes;
    const double reqs = static_cast<double>(nr.sim.lc_completed);
    requests += reqs;
    violations += nr.sim.slo_violation_rate * reqs;
    completed += reqs;
    util_sum += nr.fmem_util_pct;
    r.max_p99_ms = std::max(r.max_p99_ms, nr.p99_ms);
    p99s.push_back(nr.p99_ms);
    if (nr.slo_violation_pct > 1.0) ++r.overloaded_nodes;
  }
  if (active) {
    for (std::size_t t = 0; t < tf.size(); ++t) {
      if (!tf[t].queued) continue;
      ++r.unplaced_tenants;
      r.offered_krps += tenants_[t].demand_krps;
      const double lost = tenants_[t].demand_krps * 1000.0 * measure_s;
      requests += lost;
      violations += lost;
    }
  }
  r.completed_krps = completed / measure_s / 1000.0;
  r.slo_compliance_pct = requests > 0 ? 100.0 * (1.0 - violations / requests) : 100.0;
  r.fmem_util_pct = ran_nodes > 0 ? util_sum / static_cast<double>(ran_nodes) : 0.0;
  if (!p99s.empty()) {
    std::sort(p99s.begin(), p99s.end());
    const std::size_t idx = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(p99s.size()))) - 1;
    r.p99_of_p99_ms = p99s[std::min(idx, p99s.size() - 1)];
  }

  if (!active) {
    const double round_sim_seconds = to_seconds(cfg_.settle + cfg_.probe_window) +
                                     to_seconds(cfg_.settle + cfg_.measure_window);
    r.node_sim_seconds = static_cast<double>(cfg_.nodes) * round_sim_seconds;
  } else {
    r.node_sim_seconds = epoch_sim_seconds;
  }
  r.sim_steps = static_cast<std::uint64_t>(r.node_sim_seconds / to_seconds(cfg_.node.tick));

  reg.counter(obs::names::kClusterRebalancedTenants).inc(static_cast<double>(total_moved));
  reg.gauge(obs::names::kClusterOfferedRps).set(r.offered_krps * 1000.0);
  reg.gauge(obs::names::kClusterSloCompliancePct).set(r.slo_compliance_pct);
  reg.gauge(obs::names::kClusterTailP99Ms).set(r.max_p99_ms);
  reg.gauge(obs::names::kClusterFmemUtilPct).set(r.fmem_util_pct);
  if (active) reg.counter(obs::names::kClusterEpochs).inc(static_cast<double>(epochs));
  return r;
}

std::uint64_t ClusterResult::digest() const {
  Fnv1a h;
  const auto count = [&h](auto n) { h.add_bits(static_cast<std::uint64_t>(n)); };
  count(nodes.size());
  for (const NodeResult& n : nodes) {
    count(n.node_id);
    count(n.tenants);
    count(n.assigned_footprint);
    count(n.ran);
    for (const double x : {n.offered_krps, n.p99_ms, n.slo_violation_pct, n.fmem_util_pct})
      h.add(x);
    h.add_bits(n.sim.digest());
  }
  for (const double x : {offered_krps, completed_krps, slo_compliance_pct, max_p99_ms,
                         p99_of_p99_ms, fmem_util_pct, node_sim_seconds})
    h.add(x);
  for (const int x : {overloaded_nodes, rebalanced_tenants, node_crashes, node_stragglers,
                      node_blackouts, warm_restarts, cold_restarts, evacuations,
                      failover_retries, unplaced_tenants})
    count(x);
  count(sim_steps);
  count(epochs.size());
  for (const EpochStats& e : epochs) {
    for (const int x : {e.epoch, e.alive_nodes, e.crashed_nodes, e.straggler_nodes,
                        e.blackout_nodes, e.suspected_nodes, e.evacuated_tenants,
                        e.queued_tenants, e.placement_mode})
      count(x);
    for (const double x : {e.window_s, e.offered_krps, e.completed_krps, e.slo_compliance_pct})
      h.add(x);
  }
  return h.value();
}

}  // namespace mtat::cluster
