// Output checks behind the benchmark's `failed` count.
//
// A checked unit is one measured partitioning interval for a node workload
// and one node-epoch for a fleet workload. A unit fails when a value it
// reports is non-finite, when the fleet epoch it belongs to does not conserve
// the offered tenant demand, or when it was expected but never produced (the
// run stopped early or threw). The functions are pure, so the self-test can
// feed them deliberately corrupted results.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "cluster/cluster_sim.h"
#include "sim/colocation_sim.h"

namespace perfbench {

struct CheckResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< first few reasons, for the log

  /// Record a failure of `units` units; 0 records a problem that belongs to
  /// no single unit but still makes the run incorrect.
  void fail(std::size_t units, const std::string& why) {
    failed += units;
    if (errors.size() < 8) errors.push_back(why);
  }
};

inline bool finite_all(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

inline bool finite_point(const mtat::TimePoint& p) {
  return std::isfinite(p.t_sec) && std::isfinite(p.offered_rps) && std::isfinite(p.lc_p99_ms) &&
         std::isfinite(p.lc_throughput_rps) && std::isfinite(p.lc_fmem_ratio) &&
         std::isfinite(p.lc_fmem_share) && finite_all(p.be_fmem_share) &&
         finite_all(p.be_throughput);
}

/// The aggregate fields of a SimResult (its series is checked per point).
inline bool finite_aggregates(const mtat::SimResult& r) {
  return std::isfinite(r.lc_p99_ms) && std::isfinite(r.slo_violation_rate) &&
         finite_all(r.be_rate) && finite_all(r.be_np) && std::isfinite(r.fairness) &&
         std::isfinite(r.be_total_throughput) && std::isfinite(r.be_mean_np) &&
         std::isfinite(r.migration_bytes_per_sec) &&
         std::isfinite(r.policy_wall_us_per_interval);
}

/// Node workload: `expected` measured intervals. Non-finite aggregates fail
/// every unit, a non-finite point fails its own, missing points fail too.
inline CheckResult check_node(const mtat::SimResult& r, std::size_t expected) {
  CheckResult c;
  c.attempted = expected;
  if (!finite_aggregates(r)) {
    c.fail(expected, "non-finite SimResult aggregate");
    return c;
  }
  std::size_t bad = 0;
  for (const mtat::TimePoint& p : r.series)
    if (!finite_point(p)) ++bad;
  if (bad > 0) c.fail(bad, std::to_string(bad) + " interval(s) with a non-finite field");
  if (r.series.size() < expected)
    c.fail(expected - r.series.size(), "missing measured intervals");
  if (r.series.size() > expected)
    c.fail(0, "more measured intervals than the run length allows");
  return c;
}

inline bool finite_epoch(const mtat::cluster::EpochStats& e) {
  return std::isfinite(e.window_s) && std::isfinite(e.offered_krps) &&
         std::isfinite(e.completed_krps) && std::isfinite(e.slo_compliance_pct);
}

inline bool close_rel(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
}

/// Fleet workload: `nodes` x `epochs` node-epochs. `demand_krps` is the total
/// demand of the tenant population; every epoch must account for all of it
/// as placed on alive nodes, routed to down nodes, or queued.
inline CheckResult check_fleet(const mtat::cluster::ClusterResult& r, int nodes, int epochs,
                               double demand_krps) {
  CheckResult c;
  const auto per_epoch = static_cast<std::size_t>(nodes);
  c.attempted = per_epoch * static_cast<std::size_t>(epochs);
  if (r.epochs.size() < static_cast<std::size_t>(epochs))
    c.fail(per_epoch * (static_cast<std::size_t>(epochs) - r.epochs.size()), "missing epochs");
  const std::size_t last = r.epochs.empty() ? 0 : r.epochs.size() - 1;
  for (std::size_t e = 0; e < r.epochs.size() && e < static_cast<std::size_t>(epochs); ++e) {
    const mtat::cluster::EpochStats& es = r.epochs[e];
    const std::string at = "epoch " + std::to_string(e) + ": ";
    if (!finite_epoch(es)) {
      c.fail(per_epoch, at + "non-finite epoch field");
      continue;
    }
    if (!close_rel(es.offered_krps, demand_krps)) {
      c.fail(per_epoch, at + "offered demand not conserved");
      continue;
    }
    if (e != last) continue;
    // The final epoch's per-node results are public: check each node and
    // that the fleet aggregate still accounts for the whole demand.
    const bool aggregates_ok = std::isfinite(r.offered_krps) &&
                               std::isfinite(r.completed_krps) &&
                               std::isfinite(r.slo_compliance_pct) &&
                               std::isfinite(r.p99_of_p99_ms) && std::isfinite(r.max_p99_ms);
    if (!aggregates_ok) {
      c.fail(per_epoch, at + "non-finite fleet aggregate");
    } else if (r.nodes.size() != per_epoch || !close_rel(r.offered_krps, demand_krps)) {
      c.fail(per_epoch, at + "final-epoch fleet demand not conserved");
    } else {
      std::size_t bad = 0;
      for (const mtat::cluster::NodeResult& nr : r.nodes)
        if (nr.ran && (!finite_aggregates(nr.sim) || !std::isfinite(nr.p99_ms) ||
                       !std::isfinite(nr.offered_krps)))
          ++bad;
      if (bad > 0) c.fail(bad, at + std::to_string(bad) + " node(s) with a non-finite field");
    }
  }
  return c;
}

}  // namespace perfbench
