// One benchmark run of one workload, in a fresh process.
//
//   perfbench_node --workload <node_mtat|node_memtis_zipf|fleet_storm>
//                  --seed <n> [--trace 0|1] [--size full|tiny]
//                  [--spans-out <file>] [--budget-s <s>]
//   perfbench_node --check-selftest
//   perfbench_node --calibrate <seconds>
//
// The process builds every config explicitly (no environment knob is read,
// and any MTAT_* variable makes it refuse to start), times the calls into
// the simulator's public entry points, reads the simulator's own counters
// through metrics(), SimResult and ClusterResult, checks the outputs
// (checks.h) and prints one JSON object as its last stdout line. run.py
// starts a fresh process per seed because the BE page-profile cache is per
// process: only a fresh process measures set-up cold.
//
// After its first run, an untraced process repeats the workload's runs on a
// fresh sim of the same config while the next one still fits in
// --budget-s seconds of process time (at most kMaxRuns runs). Every
// repetition must simulate exactly what the first did; their host times
// ("run_s") give run.py many samples per cold set-up.
//
// With --trace 1 the run also records benchmark-side spans around each call
// into the simulator, keeps them in memory and writes them as a Chrome
// trace_event file at exit. Both modes make exactly the same calls with the
// same run() slicing, so their simulated outputs must be equal.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "checks.h"
#include "cluster/cluster_sim.h"
#include "cluster/placement.h"
#include "faults/cluster_fault_plan.h"
#include "obs/names.h"
#include "obs/run_context.h"
#include "sim/colocation_sim.h"
#include "sim/experiments.h"
#include "workloads/be/be_suite.h"
#include "workloads/lc/lc_workload.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace mtat;
using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// Benchmark-side spans: name, start, end and the enclosing span. Recorded only
// when tracing is on, held in memory, written once at exit.

class Spans {
 public:
  explicit Spans(Clock::time_point origin, bool on) : origin_(origin), on_(on) {}

  class Scope {
   public:
    Scope(Spans* s, std::string name) : s_(s) {
      if (s_ == nullptr) return;
      idx_ = s_->spans_.size();
      const int parent = s_->open_.empty() ? -1 : static_cast<int>(s_->open_.back());
      s_->spans_.push_back({std::move(name), parent, s_->now_us(), -1.0});
      s_->open_.push_back(idx_);
    }
    ~Scope() {
      if (s_ == nullptr) return;
      s_->spans_[idx_].end_us = s_->now_us();
      s_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* s_;
    std::size_t idx_ = 0;
  };

  Scope span(std::string name) { return Scope(on_ ? this : nullptr, std::move(name)); }

  /// Summed duration of every span called `name`, in seconds.
  double total_s(const std::string& name) const {
    double us = 0;
    for (const Span& s : spans_)
      if (s.name == name) us += s.end_us - s.start_us;
    return us * 1e-6;
  }

  void write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                    i ? "," : "", s.name.c_str(), s.start_us, s.end_us - s.start_us, i,
                    s.parent);
      out << buf;
    }
    out << "]}\n";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_us;
    double end_us;
  };
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  bool on_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// ---------------------------------------------------------------------------
// Results and their JSON form.

using Fields = std::vector<std::pair<std::string, double>>;

/// Every per-layer row the driver reports (run.py adds the tracing overhead
/// and the failed fraction). A workload that cannot see a layer leaves it 0.
const char* const kLayerNames[] = {
    "workloads.be_profile_s", "sim.construct_s", "sim.train_s", "sim.measure_s",
    "sim.tick_loop_s", "sim.intervals", "sim.bw_fmem_factor", "sim.bw_smem_factor",
    "core.policy_wall_s", "core.policy_share", "core.ppm_decide_s", "core.ppm_decide_us.p50",
    "core.ppm_decide_us.p99", "core.ppm_decisions", "core.ppm_guard_trips", "core.ppe_plans",
    "core.ppe_abandoned_frac", "rl.updates", "rl.rejected_transitions", "mem.pages_moved",
    "mem.exchanges", "mem.promotions", "mem.demotions", "mem.pages_per_tick.p99", "mem.retries",
    "mem.migration_mib_per_s", "loadgen.arrivals", "loadgen.completed", "loadgen.backlog_peak",
    "loadgen.slo_violation_pct", "cluster.node_sim_s", "cluster.useful_frac", "cluster.sim_steps",
    "cluster.parallel_eff", "cluster.evacuations", "cluster.failover_retries",
    "cluster.unplaced_tenants", "cluster.warm_restarts", "cluster.cold_restarts",
    "cluster.max_placement_mode", "faults.node_crashes", "faults.node_stragglers",
    "faults.node_blackouts",
};

Fields layer_rows(const Fields& measured) {
  Fields out;
  for (const char* name : kLayerNames) out.push_back({name, 0.0});
  for (const auto& [name, value] : measured) {
    auto it = std::find_if(out.begin(), out.end(), [&](const auto& f) { return f.first == name; });
    if (it == out.end()) throw std::logic_error("unlisted layer row " + name);
    it->second = value;
  }
  return out;
}

struct Report {
  Fields host;    ///< host-time end-to-end numbers (noisy)
  Fields sim;     ///< simulated end-to-end numbers (exact per seed)
  Fields layers;  ///< per-layer numbers (host times from spans, counts)
  CheckResult check;
  std::string digest;  ///< hash over every simulated output
  double sim_s = 0;    ///< new simulated (node-)time one run advances
  std::vector<double> run_s;  ///< host time of each run after set-up
};

/// Runs one process makes at most, its first run included.
constexpr std::size_t kMaxRuns = 32;

void json_fields(std::string& out, const char* key, const Fields& f) {
  out += "\"";
  out += key;
  out += "\":{";
  for (std::size_t i = 0; i < f.size(); ++i) {
    char buf[64];
    if (std::isfinite(f[i].second))
      std::snprintf(buf, sizeof buf, "%.17g", f[i].second);
    else
      std::snprintf(buf, sizeof buf, "null");
    out += (i ? ",\"" : "\"") + f[i].first + "\":" + buf;
  }
  out += "}";
}

/// FNV-1a over the bit patterns of every simulated output.
class Digest {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h_ ^= (bits >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const std::vector<double>& v) {
    for (double x : v) add(x);
  }
  void add(const SimResult& r) {
    for (const TimePoint& p : r.series) {
      for (double x : {p.t_sec, p.offered_rps, p.lc_p99_ms, p.lc_throughput_rps,
                       p.lc_fmem_ratio, p.lc_fmem_share})
        add(x);
      add(p.be_fmem_share);
      add(p.be_throughput);
    }
    for (double x : {r.lc_p99_ms, r.slo_violation_rate, static_cast<double>(r.lc_completed),
                     r.fairness, r.be_total_throughput, r.be_mean_np, r.migration_bytes_per_sec})
      add(x);
    add(r.be_rate);
    add(r.be_np);
  }
  std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

double counter(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Counter* c = reg.find_counter(name);
  return c != nullptr ? c->value() : 0.0;
}

double gauge(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Gauge* g = reg.find_gauge(name);
  return g != nullptr ? g->value() : 0.0;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workload geometry.

struct Geometry {
  Bytes fmem;
  Bytes smem;
  Bytes be_rss;
  BEScale be_scale;
};

// The repository's "small" preset for node runs and its "smoke" preset for
// fleet nodes and self-test runs (bench/harness.h), restated here so no
// environment knob can change them.
constexpr Geometry kSmall{128_MiB, 2_GiB, 140_MiB, BEScale::kDefault};
constexpr Geometry kSmoke{32_MiB, 512_MiB, 36_MiB, BEScale::kTest};

/// The first `n` Table 2 kernels, as be_suite() picks them.
std::vector<BEConfig> build_be(const Geometry& g, int n, Spans& spans) {
  auto s = spans.span("workloads.be_profile");
  return be_suite(g.be_scale, g.be_rss, /*cores=*/4, n);
}

/// After the run: rebuilding the suite in-process must hit the warm profile
/// cache and so be far cheaper than the cold build that set-up paid.
/// Confirms the reported set-up was the cold one.
void check_profiles_warm(const Geometry& g, int n, double cold_s, CheckResult& check) {
  const auto t0 = Clock::now();
  be_suite(g.be_scale, g.be_rss, /*cores=*/4, n);
  if (secs_since(t0) * 2 >= cold_s)
    check.fail(0, "set-up was not cold: the warm rebuild is not cheaper");
}

SimConfig node_config(const Geometry& g, std::vector<BEConfig> be, PolicyKind policy,
                      RequestDist dist, std::uint64_t seed) {
  SimConfig cfg;  // two tiers at the paper's 73/202 ns
  cfg.fmem = g.fmem;
  cfg.smem = g.smem;
  cfg.lc = redis_config();
  // LC record heap ~1.05x FMem, as the paper's Redis slightly exceeds FMem.
  cfg.lc.n_records = static_cast<std::uint64_t>(1.05 * static_cast<double>(g.fmem) /
                                                static_cast<double>(cfg.lc.record_size));
  cfg.lc.dist = dist;
  const int n_be = static_cast<int>(be.size());
  cfg.be = std::move(be);
  cfg.policy = policy;
  cfg.bandwidth.enabled = true;
  cfg.bandwidth.fmem_accesses_per_sec = 150e6 * n_be;
  cfg.bandwidth.smem_accesses_per_sec = 25e6 * n_be;
  cfg.seed = seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// Node workloads.

struct NodePlan {
  PolicyKind policy;
  RequestDist dist;
  bool trapezoid;        ///< Fig. 7 trapezoid, else constant load
  double load_fraction;  ///< peak (trapezoid) or level (constant), of max load
  int train_runs;        ///< unmeasured run() calls before the measured one
  Duration train_len;    ///< per unmeasured call; 0 = the trapezoid's length
  Duration measure_len;  ///< the measured call; 0 = the trapezoid's length
  Geometry geometry;
};

const Duration kInterval = SimConfig{}.interval;

std::size_t node_units(const NodePlan& p) {
  const Duration len = p.measure_len > 0 ? p.measure_len : LoadPattern::figure7(1).total_length();
  return static_cast<std::size_t>(len / kInterval);
}

Report run_node(const NodePlan& p, std::uint64_t seed, double budget_s, Spans& spans,
                Clock::time_point t0) {
  Report rep;
  const int n_be = 4;
  const auto tb = Clock::now();
  const std::vector<BEConfig> be = build_be(p.geometry, n_be, spans);
  const double be_profile_s = secs_since(tb);
  const SimConfig cfg = node_config(p.geometry, be, p.policy, p.dist, seed);
  obs::RunContext ctx(obs::RunContext::TraceMode::kPrivate);
  std::unique_ptr<ColocationSim> sim;
  {
    auto s = spans.span("sim.construct");
    sim = std::make_unique<ColocationSim>(cfg, &ctx);
  }
  const double setup_s = secs_since(t0);

  const double rate = p.load_fraction * cfg.lc.max_load_krps * 1000.0;
  const LoadPattern pattern =
      p.trapezoid ? LoadPattern::figure7(rate) : LoadPattern::constant(rate);
  const Duration train_len = p.train_len > 0 ? p.train_len : pattern.total_length();
  const Duration measure_len = p.measure_len > 0 ? p.measure_len : pattern.total_length();
  // Training runs, then the measured run: every repetition makes these calls.
  const auto run_plan = [&](ColocationSim& s, Spans& sp) {
    for (int i = 0; i < p.train_runs; ++i) {
      auto span = sp.span("sim.train");
      s.run(pattern, train_len, /*measure=*/false);
    }
    {
      auto span = sp.span("sim.reset_stats");
      s.reset_stats();
    }
    {
      auto span = sp.span("sim.measure");
      s.run(pattern, measure_len, /*measure=*/true);
    }
    auto span = sp.span("sim.result");
    return s.result();
  };

  const auto tr = Clock::now();
  const SimResult r = run_plan(*sim, spans);
  rep.run_s.push_back(secs_since(tr));
  const double wall_s = secs_since(t0);
  const double rss_mib = peak_rss_mib();  // before a repetition adds a second sim
  rep.check = check_node(r, node_units(p));
  Digest d;
  d.add(r);
  rep.digest = d.hex();
  // Repetitions: the same config on a fresh sim (the profile cache is warm
  // by now, so they time the run alone). Each must simulate exactly the same.
  Spans off(t0, false);
  while (rep.run_s.size() < kMaxRuns && secs_since(t0) + rep.run_s.back() <= budget_s) {
    obs::RunContext again_ctx(obs::RunContext::TraceMode::kPrivate);
    ColocationSim again(cfg, &again_ctx);
    const auto ta = Clock::now();
    const SimResult ra = run_plan(again, off);
    rep.run_s.push_back(secs_since(ta));
    Digest da;
    da.add(ra);
    if (da.hex() != rep.digest)
      rep.check.fail(0, "run " + std::to_string(rep.run_s.size()) + " simulated differently");
  }

  rep.sim_s = to_seconds(train_len) * p.train_runs + to_seconds(measure_len);
  rep.host = {{"setup_s", setup_s}, {"wall_s", wall_s}, {"peak_rss_mib", rss_mib}};
  // A single node is a fleet of one: its compliance is the share of LC
  // requests within the SLO and the P99 across its node P99s is its own P99.
  rep.sim = {{"lc_p99_ms", r.lc_p99_ms},
             {"be_fairness", r.fairness},
             {"be_mean_np", r.be_mean_np},
             {"fleet_slo_compliance_pct", 100.0 * (1.0 - r.slo_violation_rate)},
             {"fleet_p99_of_p99_ms", r.lc_p99_ms}};

  // Host times come from the spans; counts from the registry, which covers
  // the whole run, training included.
  const obs::MetricsRegistry& reg = sim->metrics();
  const double policy_wall_s = counter(reg, obs::names::kPolicyWallUs) * 1e-6;
  const obs::Histogram* decide = reg.find_histogram(obs::names::kPpmDecideWallUs);
  const obs::Histogram* per_tick = reg.find_histogram(obs::names::kMigrationPagesPerTick);
  const auto pct = [](const obs::Histogram* h, double q) {
    return h != nullptr ? static_cast<double>(h->percentile(q)) : 0.0;
  };
  const double plans = counter(reg, obs::names::kPpePlans);
  const double train_s = spans.total_s("sim.train") + spans.total_s("sim.reset_stats");
  const double measure_s = spans.total_s("sim.measure") + spans.total_s("sim.result");
  rep.layers = layer_rows({
      {"workloads.be_profile_s", spans.total_s("workloads.be_profile")},
      {"sim.construct_s", spans.total_s("sim.construct")},
      {"sim.train_s", train_s},
      {"sim.measure_s", measure_s},
      {"sim.intervals", counter(reg, obs::names::kSimIntervals)},
      {"sim.tick_loop_s", train_s + measure_s - policy_wall_s},
      {"sim.bw_fmem_factor", gauge(reg, obs::names::kBwFmemFactor)},
      {"sim.bw_smem_factor", gauge(reg, obs::names::kBwSmemFactor)},
      {"core.policy_wall_s", policy_wall_s},
      {"core.policy_share", policy_wall_s / (train_s + measure_s)},
      {"core.ppm_decide_s",
       decide != nullptr ? decide->mean() * static_cast<double>(decide->count()) * 1e-6 : 0.0},
      {"core.ppm_decide_us.p50", pct(decide, 50.0)},
      {"core.ppm_decide_us.p99", pct(decide, 99.0)},
      {"core.ppm_decisions", counter(reg, obs::names::kPpmDecisions)},
      {"core.ppm_guard_trips", counter(reg, obs::names::kPpmGuardTrips)},
      {"core.ppe_plans", plans},
      {"core.ppe_abandoned_frac",
       plans > 0 ? counter(reg, obs::names::kPpePlansAbandoned) / plans : 0.0},
      {"rl.updates", counter(reg, obs::names::kRlUpdates)},
      {"rl.rejected_transitions", counter(reg, obs::names::kRlRejectedTransitions)},
      {"mem.pages_moved", counter(reg, obs::names::kMigrationPagesMoved)},
      {"mem.exchanges", counter(reg, obs::names::kMigrationExchanges)},
      {"mem.promotions", counter(reg, obs::names::kMigrationPromotions)},
      {"mem.demotions", counter(reg, obs::names::kMigrationDemotions)},
      {"mem.pages_per_tick.p99", pct(per_tick, 99.0)},
      {"mem.retries", counter(reg, obs::names::kMigrationRetries)},
      {"mem.migration_mib_per_s", r.migration_bytes_per_sec / (1024.0 * 1024.0)},
      {"loadgen.arrivals", counter(reg, obs::names::kQueueArrivals)},
      {"loadgen.completed", counter(reg, obs::names::kQueueCompleted)},
      {"loadgen.backlog_peak", gauge(reg, obs::names::kQueueBacklogPeak)},
      {"loadgen.slo_violation_pct", 100.0 * r.slo_violation_rate},
  });
  check_profiles_warm(p.geometry, n_be, be_profile_s, rep.check);
  return rep;
}

// ---------------------------------------------------------------------------
// Fleet workload.

struct FleetPlan {
  int nodes;
  int epochs;
  int storm_epochs;
  Duration settle;
  Duration probe_window;
  Duration measure_window;
  double node_capacity_krps;
  double target_utilization;
  Geometry geometry;
};

std::size_t fleet_units(const FleetPlan& p) {
  return static_cast<std::size_t>(p.nodes) * static_cast<std::size_t>(p.epochs);
}

/// FNV-1a over every simulated output of a fleet run.
std::string fleet_digest(const cluster::ClusterResult& r) {
  Digest d;
  for (const cluster::EpochStats& es : r.epochs)
    for (double x : {es.window_s, double(es.alive_nodes), double(es.crashed_nodes),
                     double(es.straggler_nodes), double(es.blackout_nodes),
                     double(es.suspected_nodes), double(es.evacuated_tenants),
                     double(es.queued_tenants), double(es.placement_mode), es.offered_krps,
                     es.completed_krps, es.slo_compliance_pct})
      d.add(x);
  for (const cluster::NodeResult& nr : r.nodes) {
    d.add(nr.offered_krps);
    d.add(nr.ran ? 1.0 : 0.0);
    if (nr.ran) d.add(nr.sim);
  }
  d.add(r.node_sim_seconds);
  return d.hex();
}

Report run_fleet(const FleetPlan& p, std::uint64_t seed, int jobs, double budget_s, Spans& spans,
                 Clock::time_point t0) {
  Report rep;
  const int n_be = 2;
  const auto tb = Clock::now();
  const std::vector<BEConfig> be = build_be(p.geometry, n_be, spans);
  const double be_profile_s = secs_since(tb);
  cluster::ClusterConfig cc;
  cc.nodes = p.nodes;
  cc.settle = p.settle;
  cc.probe_window = p.probe_window;
  cc.measure_window = p.measure_window;
  cc.node = node_config(p.geometry, be, PolicyKind::kMemtis, RequestDist::kUniform, 0);
  cc.node_capacity_krps = p.node_capacity_krps;
  cc.target_utilization = p.target_utilization;
  cc.seed = seed;
  faults::ClusterFaultPlan plan = faults::ClusterFaultPlan::storm(1.0);
  plan.warm_restart = true;
  plan.epochs = p.epochs;
  plan.storm_epochs = p.storm_epochs;
  plan.seed = Rng(seed ^ 0xF1EE7ull).next_u64();
  cc.faults = plan;

  obs::RunContext ctx(obs::RunContext::TraceMode::kPrivate);
  std::unique_ptr<cluster::ClusterSim> sim;
  {
    auto s = spans.span("sim.construct");
    sim = std::make_unique<cluster::ClusterSim>(cc, &ctx);
  }
  const auto placement = cluster::make_telemetry_placement();
  experiments::ParallelRunner runner(jobs);
  const double setup_s = secs_since(t0);

  const auto tr = Clock::now();
  const double cpu0 = process_cpu_s();
  cluster::ClusterResult r;
  {
    auto s = spans.span("sim.measure");
    r = sim->run(*placement, &runner);
  }
  const double run_s = secs_since(tr);
  const double run_cpu_s = process_cpu_s() - cpu0;
  const double wall_s = secs_since(t0);
  const double rss_mib = peak_rss_mib();  // before a repetition adds a second sim
  rep.run_s.push_back(run_s);
  double demand = 0;
  for (const cluster::TenantStream& t : sim->tenants()) demand += t.demand_krps;
  rep.check = check_fleet(r, p.nodes, p.epochs, demand);
  rep.digest = fleet_digest(r);
  // Repetitions on a fresh ClusterSim; each must simulate exactly the same.
  while (rep.run_s.size() < kMaxRuns && secs_since(t0) + rep.run_s.back() <= budget_s) {
    obs::RunContext again_ctx(obs::RunContext::TraceMode::kPrivate);
    cluster::ClusterSim again(cc, &again_ctx);
    const auto ta = Clock::now();
    const cluster::ClusterResult ra = again.run(*placement, &runner);
    rep.run_s.push_back(secs_since(ta));
    if (fleet_digest(ra) != rep.digest)
      rep.check.fail(0, "run " + std::to_string(rep.run_s.size()) + " simulated differently");
  }

  // New simulated node-time: every kept epoch window on a node that ran,
  // plus the first epoch's settle. Checkpoint replay and straggler epochs
  // (never checkpointed, so their time is thrown away) count as zero, and so
  // does the settle of a node that boots fresh after epoch 0.
  double new_node_s = 0;
  for (const cluster::EpochStats& es : r.epochs)
    new_node_s += es.window_s * (es.alive_nodes - es.straggler_nodes);
  if (!r.epochs.empty())
    new_node_s += to_seconds(p.settle) * (r.epochs[0].alive_nodes - r.epochs[0].straggler_nodes);

  rep.sim_s = new_node_s;
  rep.host = {{"setup_s", setup_s}, {"wall_s", wall_s}, {"peak_rss_mib", rss_mib}};

  // Node-level outcomes over the nodes that ran the final epoch.
  std::vector<double> p99s;
  double reqs = 0, viol = 0, min_np = 1.0, sum_np = 0;
  for (const cluster::NodeResult& nr : r.nodes) {
    if (!nr.ran) continue;
    p99s.push_back(nr.p99_ms);
    const auto n = static_cast<double>(nr.sim.lc_completed);
    reqs += n;
    viol += n * nr.sim.slo_violation_rate;
    min_np = std::min(min_np, nr.sim.fairness);
    sum_np += nr.sim.be_mean_np;
  }
  const auto ran = static_cast<double>(p99s.size());
  rep.sim = {{"lc_p99_ms", median_of(p99s)},
             {"be_fairness", ran > 0 ? min_np : 0.0},
             {"be_mean_np", ran > 0 ? sum_np / ran : 0.0},
             {"fleet_slo_compliance_pct", r.slo_compliance_pct},
             {"fleet_p99_of_p99_ms", r.p99_of_p99_ms}};

  int max_mode = 0;
  for (const cluster::EpochStats& es : r.epochs) max_mode = std::max(max_mode, es.placement_mode);
  // Node-level registries live in the shards' private contexts and are not
  // part of ClusterResult, so the node-layer rows read 0 on the fleet, and so
  // does sim.tick_loop_s: the policy wall inside the shards is not visible.
  rep.layers = layer_rows({
      {"workloads.be_profile_s", spans.total_s("workloads.be_profile")},
      {"sim.construct_s", spans.total_s("sim.construct")},
      {"sim.measure_s", spans.total_s("sim.measure")},
      {"loadgen.slo_violation_pct", reqs > 0 ? 100.0 * viol / reqs : 0.0},
      {"cluster.node_sim_s", r.node_sim_seconds},
      {"cluster.useful_frac", r.node_sim_seconds > 0 ? new_node_s / r.node_sim_seconds : 0.0},
      {"cluster.sim_steps", static_cast<double>(r.sim_steps)},
      {"cluster.parallel_eff", run_cpu_s / (run_s * jobs)},
      {"cluster.evacuations", static_cast<double>(r.evacuations)},
      {"cluster.failover_retries", static_cast<double>(r.failover_retries)},
      {"cluster.unplaced_tenants", static_cast<double>(r.unplaced_tenants)},
      {"cluster.warm_restarts", static_cast<double>(r.warm_restarts)},
      {"cluster.cold_restarts", static_cast<double>(r.cold_restarts)},
      {"cluster.max_placement_mode", static_cast<double>(max_mode)},
      {"faults.node_crashes", static_cast<double>(r.node_crashes)},
      {"faults.node_stragglers", static_cast<double>(r.node_stragglers)},
      {"faults.node_blackouts", static_cast<double>(r.node_blackouts)},
  });
  check_profiles_warm(p.geometry, n_be, be_profile_s, rep.check);
  return rep;
}

// ---------------------------------------------------------------------------
// Workload table. "tiny" is the self-test size: the same calls on the smoke
// geometry with short runs.

NodePlan mtat_plan(bool tiny) {
  // MTAT (Full) trained on one Fig. 7 trapezoid peaking at 80% of max load,
  // then measured over another. Shorter steps than the paper's 20 s leave
  // MTAT too little time to adapt: at 10 s the measured P99 rose ~20x and
  // swung 40% between seeds, at 5 s it split into two modes.
  if (tiny)
    return {PolicyKind::kMtatFull, RequestDist::kUniform, true, 0.8, 1, seconds(20), seconds(20),
            kSmoke};
  return {PolicyKind::kMtatFull, RequestDist::kUniform, true, 0.8, 1, 0, 0, kSmall};
}

NodePlan memtis_zipf_plan(bool tiny) {
  // MEMTIS under zipfian Redis keys at a constant 70% of max load.
  if (tiny)
    return {PolicyKind::kMemtis, RequestDist::kZipfian, false, 0.7, 1, seconds(2), seconds(5),
            kSmoke};
  return {PolicyKind::kMemtis, RequestDist::kZipfian, false, 0.7, 1, seconds(20), seconds(120),
          kSmall};
}

FleetPlan storm_plan(bool tiny) {
  // A storm(1.0) over the first 8 of 12 epochs with warm restarts; the final
  // epoch measures the recovered fleet. A 4 KRPS capacity estimate at 30%
  // target utilization keeps even the most loaded healthy node below its SLO
  // knee: at 60% the tail across node P99s swung 3x between seeds with
  // whichever node drew the heaviest tenants.
  if (tiny) return {4, 3, 2, seconds(1), seconds(1), seconds(1), 4.0, 0.3, kSmoke};
  return {24, 12, 8, seconds(1), seconds(1), seconds(10), 4.0, 0.3, kSmoke};
}

struct Workload {
  std::string name;
  std::size_t (*units)(bool tiny);
  Report (*run)(std::uint64_t seed, bool tiny, int jobs, double budget_s, Spans&,
                Clock::time_point);
  int jobs;  ///< 0 = every hardware thread but one (for run.py's calibration), at most 3
};

const Workload kWorkloads[] = {
    {"node_mtat", [](bool tiny) { return node_units(mtat_plan(tiny)); },
     [](std::uint64_t seed, bool tiny, int, double budget_s, Spans& s, Clock::time_point t0) {
       return run_node(mtat_plan(tiny), seed, budget_s, s, t0);
     },
     1},
    {"node_memtis_zipf", [](bool tiny) { return node_units(memtis_zipf_plan(tiny)); },
     [](std::uint64_t seed, bool tiny, int, double budget_s, Spans& s, Clock::time_point t0) {
       return run_node(memtis_zipf_plan(tiny), seed, budget_s, s, t0);
     },
     1},
    {"fleet_storm", [](bool tiny) { return fleet_units(storm_plan(tiny)); },
     [](std::uint64_t seed, bool tiny, int jobs, double budget_s, Spans& s,
        Clock::time_point t0) {
       return run_fleet(storm_plan(tiny), seed, jobs, budget_s, s, t0);
     },
     0},
};

// ---------------------------------------------------------------------------
// Self-test of the checker: corrupted results must trip it.

int check_selftest() {
  int bad = 0;
  const auto expect = [&bad](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++bad;
  };
  SimResult r;
  r.series.resize(3);
  for (TimePoint& p : r.series) {
    p.be_fmem_share = {0.1, 0.2};
    p.be_throughput = {1.0, 2.0};
  }
  r.be_rate = {1.0, 2.0};
  r.be_np = {0.5, 0.6};
  expect(check_node(r, 3).failed == 0, "clean node result passes");
  SimResult nan_point = r;
  nan_point.series[1].be_throughput[0] = std::nan("");
  expect(check_node(nan_point, 3).failed == 1, "NaN in one interval fails that interval");
  SimResult nan_agg = r;
  nan_agg.lc_p99_ms = std::numeric_limits<double>::infinity();
  expect(check_node(nan_agg, 3).failed == 3, "non-finite aggregate fails every interval");
  expect(check_node(r, 5).failed == 2, "missing intervals count as failed");

  cluster::ClusterResult c;
  for (int e = 0; e < 2; ++e) {
    cluster::EpochStats es;
    es.epoch = e;
    es.window_s = 1;
    es.offered_krps = 10.0;
    c.epochs.push_back(es);
  }
  for (int n = 0; n < 4; ++n) {
    cluster::NodeResult nr;
    nr.node_id = n;
    nr.offered_krps = 2.5;
    nr.sim = r;
    c.nodes.push_back(nr);
  }
  c.offered_krps = 10.0;
  expect(check_fleet(c, 4, 2, 10.0).failed == 0, "clean fleet result passes");
  cluster::ClusterResult leak = c;
  leak.epochs[0].offered_krps = 9.0;
  expect(check_fleet(leak, 4, 2, 10.0).failed == 4, "non-conserving epoch fails its node-epochs");
  cluster::ClusterResult nan_node = c;
  nan_node.nodes[2].sim.be_mean_np = std::nan("");
  expect(check_fleet(nan_node, 4, 2, 10.0).failed == 1, "NaN on one node fails that node-epoch");
  cluster::ClusterResult lost_demand = c;
  lost_demand.offered_krps = 9.0;
  expect(check_fleet(lost_demand, 4, 2, 10.0).failed == 4,
         "final-epoch fleet demand not conserved fails");
  expect(check_fleet(c, 4, 3, 10.0).failed == 4, "missing epochs count as failed");
  return bad == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Calibration: fixed work that shares no code with the simulator, so its
// speed tracks the host and not the program. It mimics the simulator's mix
// on a small scale: random updates over a page table larger than the caches,
// hash-map churn, a sorted percentile and dense float math. run.py runs it on
// a spare core beside the workload and scales host times by its speed.

int calibrate(double seconds) {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  struct Page {
    std::uint64_t hot, last, tier, pad[5];
  };
  std::vector<Page> pages(1u << 19);  // 32 MiB
  std::vector<double> samples(1u << 15), w(64 * 64), v(64), out(64);
  for (double& d : w) d = static_cast<double>(next() % 1000) * 1e-3;
  std::vector<double> times;
  double sink = 0;
  const auto t0 = Clock::now();
  while (secs_since(t0) < seconds) {
    const auto ti = Clock::now();
    for (int i = 0; i < 400000; ++i) {
      Page& pg = pages[next() & (pages.size() - 1)];
      pg.hot = pg.hot / 2 + (next() & 7);
      pg.last = static_cast<std::uint64_t>(i);
    }
    std::unordered_map<std::uint64_t, std::uint64_t> m;
    for (int i = 0; i < 60000; ++i) m[next() % 40000] += static_cast<std::uint64_t>(i);
    for (double& d : samples) d = static_cast<double>(next() % 100000);
    std::sort(samples.begin(), samples.end());
    for (int r = 0; r < 400; ++r) {
      for (int i = 0; i < 64; ++i)
        v[i] = std::tanh(out[i] + samples[(r + i) % samples.size()] * 1e-5);
      for (int i = 0; i < 64; ++i) {
        double acc = 0;
        for (int j = 0; j < 64; ++j) acc += w[i * 64 + j] * v[j];
        out[i] = acc * 1e-2;
      }
    }
    sink += static_cast<double>(m.size()) + samples[samples.size() * 99 / 100] + out[0] +
            static_cast<double>(pages[x & (pages.size() - 1)].hot);
    times.push_back(secs_since(ti));
  }
  std::string outj = "{\"calibrate_s\":[";
  for (std::size_t i = 0; i < times.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", times[i]);
    outj += buf;
  }
  std::printf("%s],\"sink\":%.17g}\n", outj.c_str(), sink);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_node --workload <name> --seed <n> [--trace 0|1] "
               "[--size full|tiny] [--spans-out <file>] [--budget-s <s>]\n"
               "       perfbench_node --check-selftest\n"
               "       perfbench_node --calibrate <seconds>\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  const auto t0 = Clock::now();
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "MTAT_", 5) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; the benchmark builds every "
                   "config explicitly\n",
                   *e);
      return 2;
    }
  std::string workload, size = "full", spans_out;
  std::uint64_t seed = 0;
  double budget_s = 0;
  bool have_seed = false, trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--check-selftest") return check_selftest();
    if (a == "--calibrate" && i + 1 < argc) {
      const double secs = std::atof(argv[i + 1]);
      return secs > 0 ? calibrate(secs) : usage();
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return usage();
      have_seed = true;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage();
      trace = v == "1";
    } else if (a == "--size") {
      if (v != "full" && v != "tiny") return usage();
      size = v;
    } else if (a == "--spans-out") {
      spans_out = v;
    } else if (a == "--budget-s") {
      char* end = nullptr;
      budget_s = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(budget_s >= 0)) return usage();
    } else {
      return usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads)
    if (cand.name == workload) w = &cand;
  // Repetitions time only the run, so a traced process makes exactly one.
  if (w == nullptr || !have_seed || (trace && budget_s > 0)) return usage();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int jobs = w->jobs > 0 ? w->jobs : static_cast<int>(std::clamp(hw - 1, 1u, 3u));
  std::printf("perfbench: workload=%s seed=%" PRIu64 " jobs=%d size=%s trace=%d\n",
              workload.c_str(), seed, jobs, size.c_str(), trace ? 1 : 0);
  std::fflush(stdout);

  const bool tiny = size == "tiny";
  Spans spans(t0, trace);
  Report rep;
  try {
    auto root = spans.span("workload");
    rep = w->run(seed, tiny, jobs, budget_s, spans, t0);
  } catch (const std::exception& e) {
    // A thrown run fails every unit it was going to produce.
    rep = Report{};
    rep.check.attempted = w->units(tiny);
    rep.check.fail(rep.check.attempted, std::string("run threw: ") + e.what());
  }
  if (trace && !spans_out.empty()) spans.write_chrome_json(spans_out);

  std::string out = "{\"workload\":\"" + workload + "\",\"seed\":" + std::to_string(seed) +
                    ",\"jobs\":" + std::to_string(jobs) +
                    ",\"trace\":" + (trace ? "true" : "false") + ",\"digest\":\"" + rep.digest +
                    "\",\"attempted\":" + std::to_string(rep.check.attempted) +
                    ",\"failed\":" + std::to_string(rep.check.failed) + ",\"errors\":[";
  for (std::size_t i = 0; i < rep.check.errors.size(); ++i) {
    std::string e = rep.check.errors[i];
    for (char& ch : e)
      if (ch == '"' || ch == '\\' || static_cast<unsigned char>(ch) < 0x20) ch = '\'';
    out += (i ? ",\"" : "\"") + e + "\"";
  }
  out += "],\"run_s\":[";
  for (std::size_t i = 0; i < rep.run_s.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", rep.run_s[i]);
    out += buf;
  }
  char sim_s[48];
  std::snprintf(sim_s, sizeof sim_s, "],\"sim_s\":%.17g,", rep.sim_s);
  out += sim_s;
  json_fields(out, "host", rep.host);
  out += ",";
  json_fields(out, "sim", rep.sim);
  if (trace) {
    out += ",";
    json_fields(out, "layers", rep.layers);
  }
  out += "}";
  std::printf("%s\n", out.c_str());
  return rep.check.failed == 0 && rep.check.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main_impl(argc, argv); }
