// The co-location experiment engine.
//
// Owns one complete reproduction of the paper's server: a tiered memory, a
// bandwidth-budgeted migration engine, PEBS-like telemetry, one LC workload
// behind an open-loop M/G/k queue, a set of BE workloads, and one placement
// policy (MTAT variant or baseline). run() advances everything on a shared
// simulated clock; per-interval rows give the time series behind Figures 2
// and 5, and the aggregate metrics give fairness/throughput/SLO-violation
// numbers behind Figures 6, 8, 9 and Tables 3-4.
//
// Allocation order reproduces the paper's setup: the LC workload allocates
// first and FMem-first (Figure 2: "Redis initially occupies 100% of available
// FMem"), BE workloads spill to SMem — except under the static pins, which
// place LC (FMEM_ALL) or BE (SMEM_ALL) exclusively.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mtat_policy.h"
#include "loadgen/queue_sim.h"
#include "mem/migration_engine.h"
#include "mem/tiered_memory.h"
#include "obs/run_context.h"
#include "policy/memtis_policy.h"
#include "policy/vtmm_policy.h"
#include "policy/damon_policy.h"
#include "policy/memtis_hp_policy.h"
#include "policy/policy.h"
#include "policy/static_policy.h"
#include "policy/tpp_policy.h"
#include "telemetry/access_sampler.h"
#include "workloads/be/be_workload.h"
#include "workloads/lc/lc_workload.h"

namespace mtat {

/// kVtmm and kDamon are extensions beyond the paper's comparison set (see
/// policy/vtmm_policy.h and policy/damon_policy.h); the rest are §5's
/// comparison points.
enum class PolicyKind {
  kMtatFull, kMtatLcOnly, kMemtis, kTpp, kFmemAll, kSmemAll, kVtmm, kDamon, kMemtisHp
};

const char* policy_name(PolicyKind k);

/// Optional tier-bandwidth contention model (§7's bandwidth-aware policy
/// discussion): when a tier's aggregate access demand approaches its
/// sustainable rate, its effective per-access latency inflates, which feeds
/// back into every workload's throughput and the LC service times.
struct BandwidthModel {
  bool enabled = false;
  double fmem_accesses_per_sec = 600e6;  ///< sustainable access rate, FMem
  double smem_accesses_per_sec = 45e6;   ///< sustainable access rate, SMem
  /// Optional per-tier sustainable rates for deeper topologies, indexed by
  /// TierId. Tiers beyond the vector (or with it empty) fall back to
  /// fmem_accesses_per_sec for tier 0 and smem_accesses_per_sec for the rest.
  std::vector<double> tier_accesses_per_sec;
  /// Inflation curve: latency factor = 1 / (1 - saturation * utilization),
  /// the standard open-queue approximation; `saturation` < 1 softens it so
  /// the coupled demand/latency fixed point stays stable.
  double saturation = 0.8;
  double max_factor = 4.0;  ///< latency inflation cap
  /// Per-tick EWMA damping of the factor (demand is elastic in latency, so
  /// the undamped one-step iteration can oscillate).
  double damping = 0.1;
};

/// The latency-inflation curve of the bandwidth model at utilization `rho`.
inline double bandwidth_factor(const BandwidthModel& bw, double rho) {
  const double r = std::min(0.999, rho);
  return std::min(bw.max_factor, std::max(1.0, 1.0 / (1.0 - bw.saturation * r)));
}

/// Sustainable access rate of tier `t` under the model's fallback rules.
inline double tier_accesses_per_sec(const BandwidthModel& bw, TierId t) {
  if (t < bw.tier_accesses_per_sec.size()) return bw.tier_accesses_per_sec[t];
  return t == kFastestTier ? bw.fmem_accesses_per_sec : bw.smem_accesses_per_sec;
}

struct SimConfig {
  // --- platform (DESIGN.md §5 scaled defaults) ---
  Bytes fmem = Bytes{2} * 1024 * 1024 * 1024;
  Bytes smem = Bytes{16} * 1024 * 1024 * 1024;
  Duration fmem_latency = 73;
  Duration smem_latency = 202;
  double migration_bandwidth = 4.0 * 1024 * 1024 * 1024;  ///< bytes/s (§5.5)
  /// Explicit tier vector (fastest first, e.g. from parse_topology). Empty —
  /// the default — means the classic two-tier platform built from the four
  /// fields above; non-empty overrides them, and each tier's link bandwidth
  /// feeds the migration engine's per-link budgets.
  std::vector<TierSpec> tiers;
  /// Capacity of the fastest tier, whichever way the platform was specified —
  /// what cluster-level placement treats as the node's FMem.
  Bytes fastest_capacity_bytes() const {
    return tiers.empty() ? fmem : tiers.front().capacity_pages * kPageSize;
  }
  // --- timing ---
  Duration tick = milliseconds(10);
  Duration interval = seconds(1);  ///< partitioning interval (paper: 60 s, /60)
  Duration latency_window = seconds(1);
  // --- tenants ---
  LCConfig lc;
  std::vector<BEConfig> be;
  // --- policy ---
  BandwidthModel bandwidth;
  PolicyKind policy = PolicyKind::kMtatFull;
  MtatPolicy::Options mtat;    ///< tunables for the MTAT variants
  SacAgent* shared_agent = nullptr;  ///< persist RL learning across sims
  std::uint64_t seed = 42;
};

/// One partitioning-interval row of the experiment time series.
struct TimePoint {
  double t_sec = 0;
  double offered_rps = 0;
  double lc_p99_ms = 0;
  double lc_throughput_rps = 0;
  double lc_fmem_ratio = 0;   ///< LC pages in FMem / LC RSS (Figure 2 bottom)
  double lc_fmem_share = 0;   ///< LC pages in FMem / FMem capacity (Figure 5)
  std::vector<double> be_fmem_share;   ///< per BE, of FMem capacity
  std::vector<double> be_throughput;   ///< per BE, iterations/s this interval
};

/// Aggregates over the measured portion of a run.
struct SimResult {
  std::vector<TimePoint> series;
  double lc_p99_ms = 0;            ///< P99 over the whole measured phase
  double slo_violation_rate = 0;   ///< fraction of requests over SLO (Table 4)
  std::uint64_t lc_completed = 0;
  std::vector<double> be_rate;     ///< mean iterations/s per BE
  std::vector<double> be_np;       ///< Eq. 3 normalized performance per BE
  double fairness = 0;             ///< min_i NP_i (§5.1's fairness metric)
  double be_total_throughput = 0;  ///< sum of mean BE rates (Figure 6b)
  double be_mean_np = 0;           ///< scale-free alternative aggregate
  /// §5.5 overhead proxies. Both are derived views over the sim's
  /// MetricsRegistry ("migration.pages_moved", "policy.wall_us",
  /// "sim.measured_intervals"), not separate bookkeeping — the registry's
  /// "derived.*" gauges carry the same values.
  double migration_bytes_per_sec = 0;      ///< PP-E overhead proxy (§5.5)
  double policy_wall_us_per_interval = 0;  ///< PP-M overhead proxy (§5.5)
};

/// A deterministic checkpoint of a ColocationSim (DESIGN.md §17): the
/// construction config plus the journal of every run()/reset_stats() call the
/// sim has executed. Under the determinism contract the sim's entire state —
/// tiered-memory occupancy, the PageHotness SoA histograms, policy/PP-E
/// state, every RNG cursor — is a pure function of (config, op sequence), so
/// restoring by replaying the journal into a fresh instance reconstructs it
/// bit-exactly (enforced by tests/checkpoint_test.cc and the cluster
/// warm-restart path). Ops hold copies of their LoadPatterns: a checkpoint is
/// plain data that can outlive the sim and cross threads.
struct SimCheckpoint {
  struct Op {
    enum class Kind { kRun, kResetStats };
    Kind kind = Kind::kRun;
    LoadPattern pattern = LoadPattern::constant(0.0);  // kRun only
    Duration duration = 0;                             // kRun only
    bool measure = true;                               // kRun only
  };
  SimConfig config;
  std::vector<Op> ops;

  /// Total simulated time replaying the journal costs — what a warm restart
  /// pays to reconstruct the node.
  Duration replay_time() const {
    Duration t = 0;
    for (const Op& op : ops)
      if (op.kind == Op::Kind::kRun) t += op.duration;
    return t;
  }
};

class ColocationSim {
 public:
  /// `ctx` is the run's observability context (metrics registry, trace
  /// recorder, optional fault injector). It is required — a null pointer
  /// throws std::invalid_argument — and must outlive the sim. Sims on
  /// concurrent threads each need their own context, as
  /// experiments::ParallelRunner provides.
  ColocationSim(const SimConfig& cfg, obs::RunContext* ctx);

  ColocationSim(const ColocationSim&) = delete;
  ColocationSim& operator=(const ColocationSim&) = delete;
  ~ColocationSim();

  /// Advance the simulation by `duration` under `pattern` (restarted at the
  /// current time). With measure=false (training/warmup) nothing is recorded.
  void run(const LoadPattern& pattern, Duration duration, bool measure = true);

  /// Aggregates for everything measured since construction (or reset_stats).
  SimResult result() const;

  /// Drop measured data, keeping all simulation and learning state — used
  /// between a training phase and the measured phase.
  void reset_stats();

  /// Checkpoint this sim: its construction config plus the full op journal
  /// (see SimCheckpoint). O(journal length); no simulation state is copied.
  SimCheckpoint snapshot() const { return {cfg_, journal_}; }

  /// Rebuild a sim from a checkpoint by constructing a fresh instance and
  /// replaying the journal — bit-exact vs. the snapshotted sim, including its
  /// measurement bookkeeping and metrics registry (minus wall-time metrics).
  /// The replayed ops re-enter the new sim's journal, so a restored sim's own
  /// snapshot() equals the original's. `ctx` follows the constructor's
  /// contract (required, outlives the sim); a checkpoint whose config names
  /// a shared_agent replays its learning into that same agent, so restoring
  /// it is only deterministic when the agent is private to this sim's
  /// history.
  static std::unique_ptr<ColocationSim> restore(const SimCheckpoint& cp, obs::RunContext* ctx);

  /// Structural state digest for checkpoint verification: the sim clock,
  /// per-tier occupancy, per-workload per-tier page counts, and every
  /// PageHotness sink's per-tier bin-occupancy vector. Two sims with equal
  /// fingerprints hold the same memory placement and telemetry state;
  /// metric-level equality is checked separately (wall-time metrics
  /// legitimately differ).
  std::string fingerprint() const;

  LCWorkload& lc() { return *lc_; }
  BEWorkload& be(std::size_t i) { return *be_[i]; }
  std::size_t be_count() const { return be_.size(); }
  TieredMemory& mem() { return *mem_; }
  MigrationEngine& engine() { return *engine_; }
  TieringPolicy& policy() { return *policy_; }
  const SimConfig& config() const { return cfg_; }
  SimTime now() const { return now_; }

  /// Every signal the sim and its components record (migration counters,
  /// policy wall time, queue depth, RL losses, bandwidth factors). Always on;
  /// export with obs::MetricsRegistry::write_json/write_csv.
  obs::MetricsRegistry& metrics() { return ctx_->metrics(); }
  const obs::MetricsRegistry& metrics() const { return ctx_->metrics(); }

  /// The observability context this sim records into.
  obs::RunContext& run_context() { return *ctx_; }

 private:
  void record_interval(double offered_rps, Duration lc_p99, Duration interval);
  void apply_bandwidth_model(double lc_offered_rps);
  void update_derived_gauges();

  SimConfig cfg_;
  // Borrowed: engine, queue, and policy cache pointers into its registry and
  // trace recorder, so it must outlive the sim (see the constructor).
  obs::RunContext* ctx_;
  std::unique_ptr<TieredMemory> mem_;
  std::unique_ptr<MigrationEngine> engine_;
  std::unique_ptr<AccessSampler> sampler_;
  std::unique_ptr<LCWorkload> lc_;
  std::vector<std::unique_ptr<BEWorkload>> be_;
  std::unique_ptr<QueueSim> queue_;
  std::unique_ptr<TieringPolicy> policy_;
  MtatPolicy* mtat_ = nullptr;  // non-null when policy is an MTAT variant
  faults::FaultInjector* inj_ = nullptr;  // the context's injector, or null
  double smem_spike_applied_ = 1.0;  // spike factor currently on the SMem tier

  SimTime now_ = 0;
  SimTime next_interval_ = 0;
  std::uint32_t trace_track_ = 0;

  // Checkpoint journal (see SimCheckpoint). Armed only after construction
  // completes: the constructor's own reset_stats() is part of every sim's
  // birth, not of its history.
  std::vector<SimCheckpoint::Op> journal_;
  bool journal_armed_ = false;

  // Cached registry handles (stable for the registry's lifetime).
  obs::Counter* policy_wall_c_ = nullptr;      // "policy.wall_us"
  obs::Histogram* policy_wall_h_ = nullptr;    // "policy.wall_us_hist"
  obs::Counter* intervals_c_ = nullptr;        // "sim.intervals"
  obs::Counter* measured_intervals_c_ = nullptr;  // "sim.measured_intervals"
  obs::Counter* pages_moved_c_ = nullptr;      // "migration.pages_moved" (engine-fed)
  obs::Gauge* bw_factor_g_[2] = {nullptr, nullptr};

  // Measurement phase bookkeeping. The §5.5 overhead aggregates are derived
  // from registry counters relative to marks captured at reset_stats().
  std::vector<TimePoint> series_;
  LatencyHistogram measured_lat_;
  std::uint64_t measured_requests_ = 0;
  std::uint64_t measured_violations_ = 0;
  std::vector<double> be_measured_iters_;
  Duration measured_time_ = 0;
  double pages_moved_mark_ = 0;      // counter value at reset_stats
  double pages_moved_measured_ = 0;  // counter delta as of the last interval
  double policy_wall_mark_ = 0;
  double measured_intervals_mark_ = 0;
  std::vector<double> bw_factor_;  // damped contention factors, one per tier
};

}  // namespace mtat
