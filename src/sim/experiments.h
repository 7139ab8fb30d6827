// Reusable experiment drivers shared by the benchmark harness and examples.
//
// Public surface (namespace mtat::experiments):
//  * RunSpec / ParallelRunner — a small thread pool executing independent
//    experiment points, each with its own obs::RunContext derived from the
//    caller's, with results and traces folded back in deterministic spec
//    order.
//  * lc_latency_curve — the Figure-1 P99-vs-load sweep, optionally fanned
//    across a runner.
//  * find_max_load — bisection for "maximum load satisfying a predicate",
//    serial classic form plus a speculative parallel overload.
//  * probe_slo_sustainable — the paper's SLO-violation sustainability probe.
//
// Determinism contract: for a given seed, every driver here produces
// bit-identical results whatever the job count. Parallel work is pre-seeded
// and pre-partitioned in spec order before any worker starts, workers write
// into disjoint result slots, and nothing consults scheduling order. The
// parallel bisection evaluates a jobs-invariant probe set (see
// find_max_load), so even its *predicate call set* does not depend on the
// worker count. DESIGN.md §11 spells out the full contract.
//
// Everything lives in mtat::experiments; the pre-namespace mtat:: forwarding
// wrappers that once sat at the bottom of this header are gone — callers
// qualify with experiments:: directly.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "obs/run_context.h"
#include "sim/colocation_sim.h"

namespace mtat::experiments {

/// One point of a Figure-1 latency curve.
struct LatencyCurvePoint {
  double offered_krps = 0;
  double p99_ms = 0;
  double achieved_krps = 0;
};

/// One independent unit of work for ParallelRunner. `fn` receives an
/// obs::RunContext dedicated to this spec: build simulations with
/// `ColocationSim(cfg, &ctx)` and write results into storage no other spec
/// touches.
struct RunSpec {
  std::string name;
  std::function<void(obs::RunContext&)> fn;
};

/// Executes independent experiment points on a small worker pool.
///
/// run_all(specs, parent) creates one obs::RunContext per spec up front, as
/// a child of `parent`: it carries the parent's fault plan, and its recorder
/// is enabled at the parent recorder's capacity when — and only when — the
/// parent's is enabled (so rings cost memory only when someone asked for a
/// trace). It runs every spec's fn exactly once across `jobs` workers and,
/// after all workers join, merges each spec's trace ring into the parent's
/// recorder *in spec order* with distinct track ids
/// (TraceRecorder::merge_from), so trace output is reproducible and
/// independent of scheduling. Spec metrics stay in the spec contexts.
///
/// Exceptions thrown by a spec stop workers from claiming further specs; the
/// first exception (in claim order) is rethrown from run_all after the pool
/// joins, and no trace merging happens on the error path.
///
/// run_all must be called from one thread at a time (bench main); it is not
/// reentrant from inside a spec, because the final merge into the parent's
/// recorder is unsynchronized and a one-worker pool would deadlock on
/// itself. Nesting is an explicit error, not undefined behaviour: a run_all
/// that starts while another is active — through *any* runner instance —
/// throws std::logic_error from the inner call, and the outer call then
/// rethrows it like any other spec failure.
class ParallelRunner {
 public:
  /// `jobs` <= 0 selects std::thread::hardware_concurrency() (min 1) — the
  /// MTAT_JOBS default. jobs == 1 runs every spec inline on the calling
  /// thread (no pool), which is the bit-identical serial reference path.
  explicit ParallelRunner(int jobs = 0);

  int jobs() const { return jobs_; }

  void run_all(const std::vector<RunSpec>& specs, obs::RunContext& parent);

 private:
  int jobs_;
};

/// P99-vs-load curve for an LC workload running *alone* with a static FMem
/// allocation able to hold `fmem_fraction` of its footprint (Figure 1's
/// FMem 0/25/50/75/100% settings). Each load level runs on a fresh memory /
/// workload / queue triple (no state carry-over between points), `per_point`
/// of simulated time with the first fifth discarded as warmup. Per-point
/// seeds are drawn up front from `seed` in point order, so the curve is
/// bit-identical whether the points run serially (`runner` null) or fanned
/// across a ParallelRunner.
std::vector<LatencyCurvePoint> lc_latency_curve(const LCConfig& lc, double fmem_fraction,
                                                const std::vector<double>& load_fractions,
                                                Duration per_point, std::uint64_t seed,
                                                ParallelRunner* runner = nullptr);

/// Generic bisection for "maximum load satisfying a predicate" (Figure 8's
/// max sustainable load). `sustainable(krps)` must be monotone (true below
/// the knee). Returns the largest sustainable load found within `iters`
/// halvings of [lo, hi]; if the predicate fails even at `lo` the bisection
/// returns `lo` immediately. Guard for non-monotone predicates: the returned
/// value (beyond `lo` itself) is always one the predicate actually accepted
/// during the search, never an interpolation. Throws std::invalid_argument
/// for a non-finite or inverted bracket (both overloads) — a NaN endpoint
/// would otherwise poison every midpoint and bisect on garbage.
double find_max_load(const std::function<bool(double krps)>& sustainable, double lo_krps,
                     double hi_krps, int iters = 7);

/// Parallel bisection: same recurrence and same result as the serial form
/// for any *pure* deterministic predicate, with probes batched through
/// `runner` as children of `parent` (ParallelRunner::run_all). Each batch
/// speculatively evaluates both possible next midpoints alongside the
/// current one (a depth-2 frontier), so two bisection levels resolve per
/// batch and three to four probes run concurrently. The probe
/// set depends only on [lo, hi] and `iters`, never on the job count —
/// jobs=1 and jobs=N evaluate the predicate at the exact same points.
/// The predicate MUST be pure (no state shared across probes, e.g. no
/// shared SacAgent): speculative probes that a serial bisection would never
/// reach do run here. Impure predicates must use the serial overload.
double find_max_load(const std::function<bool(double krps, obs::RunContext& ctx)>& sustainable,
                     double lo_krps, double hi_krps, int iters, ParallelRunner& runner,
                     obs::RunContext& parent);

/// Convenience: SLO-violation criterion the paper uses — run `sim` at
/// constant `krps` for `duration` (after `warm` uncounted) and require the
/// measured violation rate to stay under `max_violation_rate`. A non-finite
/// measured rate reads as unsustainable (NaN must not pass a <= by accident).
bool probe_slo_sustainable(ColocationSim& sim, double krps, Duration warm, Duration duration,
                           double max_violation_rate = 0.01);

}  // namespace mtat::experiments
