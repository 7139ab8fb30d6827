// Declarative fault schedules for the substrate-misbehaviour layer.
//
// Real tiered-memory hardware is not the perfect substrate the simulator
// otherwise assumes: Nomad (arXiv:2401.13154) shows page migrations abort
// mid-flight under memory pressure, TPP (arXiv:2206.02878) treats migration
// failure/retry as a first-class path, and PEBS sampling drops or misattributes
// records under load. A FaultPlan describes exactly which of those
// misbehaviours a run should suffer — probabilistic per-event faults plus
// scheduled (optionally periodic) windows in simulated time — and a
// faults::FaultInjector (fault_injector.h) executes it deterministically.
//
// Determinism contract: a plan is pure data, and every random draw the
// injector makes comes from RNG streams derived from `seed` alone. Two runs
// with the same simulation seed and the same plan suffer bit-identical fault
// sequences, whatever MTAT_JOBS is (each experiment point owns its context,
// and each context owns an identically-seeded injector). See DESIGN.md §12.
//
// This layer depends only on src/common so obs::RunContext can own an
// injector without a dependency cycle; components — never the injector —
// register the fault metrics and emit the trace events.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"

namespace mtat::faults {

/// A window in simulated time. `period == 0` is a one-shot [start,
/// start+length); a nonzero period repeats the window every `period` from
/// `start` onwards (length <= period).
struct FaultWindow {
  SimTime start = 0;
  Duration length = 0;
  Duration period = 0;

  bool contains(SimTime t) const {
    if (t < start || length == 0) return false;
    const SimTime rel = t - start;
    if (period == 0) return rel < length;
    return rel % period < length;
  }
};

/// Normalize a window schedule in place:
///  - reject inverted periodic windows (length exceeds period — the window
///    would never close, which always means a spec bug) with
///    std::invalid_argument;
///  - drop zero-length windows (they never arm, but left in place they make
///    FaultPlan::any() report the category armed while injecting nothing);
///  - sort by (period, start) and merge overlapping or abutting same-period
///    windows, so a category cannot be listed twice for the same instant.
/// Windows with different periods are kept apart: their overlap varies per
/// cycle, and contains() queries are idempotent anyway.
void normalize_windows(std::vector<FaultWindow>& windows);

/// Everything that can go wrong, in one schedule. Default-constructed plans
/// inject nothing (all probabilities zero, no windows); such a plan still
/// attaches an injector, which activates the graceful-degradation machinery
/// (watchdog, plan abandonment) without perturbing behaviour — the injector
/// consumes no randomness on zero-probability paths.
struct FaultPlan {
  /// Seeds the injector's per-category RNG streams. Independent of the
  /// simulation seed so fault schedules and workloads can vary separately.
  std::uint64_t seed = 0xFA017Dull;

  // --- telemetry (src/telemetry) --------------------------------------------
  double sample_loss_prob = 0.0;        ///< drop a PEBS-like sample
  double sample_corruption_prob = 0.0;  ///< misattribute it to a random page
  /// Scheduled total sample loss (stale-telemetry injection): inside a
  /// blackout every sample is dropped, deterministically.
  std::vector<FaultWindow> telemetry_blackouts;

  // --- migration (src/mem) --------------------------------------------------
  /// A migration attempt aborts after consuming its copy bandwidth (the
  /// Nomad abort case); exchanges additionally roll the half-copied page
  /// back, leaving placement untouched.
  double migration_failure_prob = 0.0;
  /// Scheduled failure bursts: inside a burst window, attempts fail with
  /// `burst_failure_prob` instead (1.0 = total outage).
  std::vector<FaultWindow> migration_failure_bursts;
  double burst_failure_prob = 1.0;
  /// Scheduled migration-bandwidth collapse: the engine's refill is scaled
  /// by `bandwidth_collapse_factor` inside these windows. By default every
  /// migration link collapses together; setting `bandwidth_collapse_link`
  /// to a link index (link k connects tiers k and k+1) confines the
  /// collapse to that one channel in an N-tier topology.
  std::vector<FaultWindow> bandwidth_collapses;
  double bandwidth_collapse_factor = 0.1;
  int bandwidth_collapse_link = -1;

  // --- simulator (src/sim) --------------------------------------------------
  /// Scheduled SMem latency spikes: the slow tier's effective per-access
  /// latency is additionally multiplied by `smem_spike_factor` (>= 1).
  std::vector<FaultWindow> smem_latency_spikes;
  double smem_spike_factor = 3.0;

  // --- RL (src/rl) ----------------------------------------------------------
  double rl_nan_action_prob = 0.0;        ///< act() returns all-NaN
  double rl_divergent_action_prob = 0.0;  ///< act() returns +-1e6 (off-manifold)

  /// True when the plan can actually inject something (any probability > 0
  /// or any window scheduled).
  bool any() const;

  /// The canonical mixed-fault schedule, scaled by `intensity` in [0, 1]:
  /// probabilistic sample loss/corruption, migration failures, and RL action
  /// corruption, plus periodic burst/blackout/collapse/spike windows. At
  /// intensity 1.0 the burst windows are total migration outages and the
  /// blackout windows total telemetry loss — the acceptance scenario for the
  /// degradation ladder. Throws std::invalid_argument outside [0, 1].
  static FaultPlan storm(double intensity);

  /// A copy of this plan with every window list passed through
  /// normalize_windows() — the canonical form the injector actually
  /// executes. Throws std::invalid_argument on malformed windows.
  FaultPlan normalized() const;

  /// Parse an MTAT_FAULTS-style spec: `preset` or `preset:intensity`
  /// (currently the one preset is `storm`; e.g. "storm", "storm:0.5").
  /// Returns nullopt on an unknown preset or malformed/out-of-range
  /// intensity.
  static std::optional<FaultPlan> from_spec(const std::string& spec);
};

}  // namespace mtat::faults
