// Per-run observability state: one MetricsRegistry, one TraceRecorder and an
// optional fault injector.
//
// A RunContext is the unit of observability isolation. Every ColocationSim
// and ClusterSim records into the context its caller passes in, and every
// component that records metrics or trace events (MigrationEngine, QueueSim,
// SacAgent, PP-M, PP-E) is wired to it explicitly via set_run_context().
// There is no process-global recorder or fault plan: each context owns its
// recorder, which is what makes independent sims safe to run on concurrent
// threads (experiments::ParallelRunner).
//
// Entry points build the root context explicitly: tools/mtat_sim from its
// flags, bench binaries in bench::banner() from MTAT_TRACE/MTAT_FAULTS, tests
// and examples as locals. Nested runs derive from a parent —
// ParallelRunner::run_all gives every spec a fresh context carrying the
// parent's fault plan and trace settings, then merges the spec rings back
// into the parent's recorder in spec order (TraceRecorder::merge_from).
#pragma once

#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mtat::faults {
class FaultInjector;
struct FaultPlan;
}  // namespace mtat::faults

namespace mtat::obs {

class RunContext {
 public:
  /// Kept so existing `RunContext(RunContext::TraceMode::kPrivate)` call
  /// sites still compile; every context owns its recorder, so the one value
  /// means the same as the default constructor.
  enum class TraceMode { kPrivate };

  /// A fresh metrics registry, a default-disabled TraceRecorder (enable it
  /// to collect events) and no fault injector.
  RunContext();
  explicit RunContext(TraceMode /*mode*/) : RunContext() {}
  ~RunContext();  // out of line: FaultInjector is incomplete here

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }

  /// Attach a fault injector executing `plan` to this context, replacing any
  /// earlier one. Components wired to the context pick it up in their
  /// set_run_context(); call before constructing the sim.
  void install_faults(const faults::FaultPlan& plan);

  /// Install `parent`'s fault plan, if it has one, on this fresh context:
  /// a new injector on the same plan, so its draws start from the plan seed.
  void inherit_faults(const RunContext& parent);

  /// The attached injector, or nullptr — the common case, and the fast path
  /// every fault site checks first. Non-null also signals the degradation
  /// machinery (watchdog, plan abandonment) to arm itself.
  faults::FaultInjector* faults() const { return faults_.get(); }

 private:
  MetricsRegistry metrics_;
  TraceRecorder trace_;
  std::unique_ptr<faults::FaultInjector> faults_;
};

}  // namespace mtat::obs
