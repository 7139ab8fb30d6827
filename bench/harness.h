// Shared infrastructure for the per-figure/table benchmark binaries.
//
// Every binary reproduces one table or figure from the paper's evaluation:
// it prints the same rows/series the paper reports and writes the raw data
// as CSV into the working directory. Scale is selected with MTAT_SCALE=
// small (default; DESIGN.md's miniature preset, minutes for the whole suite)
// or large (the §5-scaled preset, substantially slower). MTAT_EPOCHS
// overrides the RL training epochs run before each measured MTAT phase.
// banner() prints the header, writes a `<experiment>.manifest.json` sidecar
// so every CSV in the working directory carries its provenance, and returns
// the binary's root RunContext: MTAT_FAULTS becomes its fault plan and
// MTAT_TRACE=path.json enables its recorder (MTAT_TRACE_EVENTS overrides the
// ring capacity), and the Chrome trace_event file (chrome://tracing,
// Perfetto) is written when the root goes out of scope at the end of main().
// Every run the binary makes descends from the root. Experiment parallelism
// (MTAT_JOBS, default one job per hardware thread) is exposed as
// make_runner(); see bench/env.h for all environment knobs.
#pragma once

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "bench/env.h"
#include "faults/fault_plan.h"
#include "mem/topology.h"
#include "obs/manifest.h"
#include "obs/run_context.h"
#include "sim/colocation_sim.h"
#include "sim/experiments.h"
#include "workloads/be/be_suite.h"

namespace mtat::bench {

struct Scale {
  Bytes fmem;
  Bytes smem;
  Bytes be_rss;
  BEScale be_scale;
  double lc_oversubscription;  ///< LC RSS as a multiple of FMem (paper ~1.05)
  int train_epochs;            ///< fig-7 epochs of RL training per MTAT run
  Duration measure_window;     ///< measured span for steady-state probes
};

/// The scale preset in effect: "small" or "large" (MTAT_SCALE, validated by
/// bench::Env — unknown values warn and fall back to small).
inline std::string scale_preset_from_env() { return Env::get().scale; }

/// The experiment runner for this process: MTAT_JOBS workers, defaulting to
/// one per hardware thread. Benches fan their independent points through it;
/// results are deterministic whatever the job count (DESIGN.md §11).
inline experiments::ParallelRunner make_runner() {
  return experiments::ParallelRunner(Env::get().jobs);
}

inline Scale scale_from_env() {
  const std::string preset = scale_preset_from_env();
  Scale out;
  if (preset == "large") {
    out.fmem = Bytes{2} * 1024 * 1024 * 1024;
    out.smem = Bytes{16} * 1024 * 1024 * 1024;
    out.be_rss = Bytes{2252} * 1024 * 1024;
  } else if (preset == "smoke") {
    // CI preset: seconds of wall time per bench, small enough to run under
    // TSan; exercises the full pipeline, not the paper's operating point.
    out.fmem = Bytes{32} * 1024 * 1024;
    out.smem = Bytes{512} * 1024 * 1024;
    out.be_rss = Bytes{36} * 1024 * 1024;
  } else {
    out.fmem = Bytes{128} * 1024 * 1024;
    out.smem = Bytes{2} * 1024 * 1024 * 1024;
    out.be_rss = Bytes{140} * 1024 * 1024;
  }
  out.be_scale = preset == "smoke" ? BEScale::kTest : BEScale::kDefault;
  out.lc_oversubscription = 1.05;
  out.train_epochs = preset == "smoke" ? 1 : 5;
  out.measure_window = preset == "smoke" ? seconds(5) : seconds(30);
  if (const auto epochs = Env::get().epochs) out.train_epochs = *epochs;
  return out;
}

/// A paper LC config resized so its record heap is ~lc_oversubscription x
/// FMem (Table 1: LC RSS slightly exceeds the 32 GB fast tier).
inline LCConfig scaled_lc_config(const LCConfig& paper, const Scale& sc) {
  LCConfig c = paper;
  c.n_records = static_cast<std::uint64_t>(sc.lc_oversubscription *
                                           static_cast<double>(sc.fmem) /
                                           static_cast<double>(c.record_size));
  return c;
}

inline std::vector<LCConfig> scaled_lc_configs(const Scale& sc) {
  std::vector<LCConfig> out;
  for (const LCConfig& c : all_lc_configs()) out.push_back(scaled_lc_config(c, sc));
  return out;
}

/// The MTAT_TOPOLOGY tier vector, if one was given and parses. A malformed
/// spec warns and behaves as unset (benches keep their built-in two-tier
/// scale preset) — the same fail-safe direction as every other env knob.
inline std::optional<std::vector<TierSpec>> topology_from_env() {
  const std::string& spec = Env::get().topology;
  if (spec.empty()) return std::nullopt;
  std::string error;
  if (auto tiers = parse_topology(spec, &error)) return tiers;
  std::fprintf(stderr, "warning: invalid MTAT_TOPOLOGY=%s (%s); using the bench default\n",
               spec.c_str(), error.c_str());
  return std::nullopt;
}

/// Standard co-location SimConfig: one LC + n BE workloads under `policy`.
/// MTAT_TOPOLOGY, when set and valid, replaces the preset's two tiers with
/// the given tier vector (capacities, latencies, and link bandwidths).
inline SimConfig make_sim_config(const Scale& sc, const LCConfig& lc, PolicyKind policy,
                                 int n_be = 4, int be_cores = 4) {
  SimConfig cfg;
  cfg.fmem = sc.fmem;
  cfg.smem = sc.smem;
  if (const auto topo = topology_from_env()) cfg.tiers = *topo;
  cfg.lc = lc;
  cfg.be = be_suite(sc.be_scale, sc.be_rss, be_cores, n_be);
  cfg.policy = policy;
  // Tier-bandwidth contention is part of the standard co-location platform:
  // a BE fleet hammering SMem inflates its effective latency, which is how
  // a co-located, SMem-resident LC workload loses capacity it would have
  // standalone (Table 4's mid-load violations). Capacities scale with the
  // number of BE tenants sharing the slow tier.
  cfg.bandwidth.enabled = true;
  cfg.bandwidth.fmem_accesses_per_sec = 150e6 * n_be;
  cfg.bandwidth.smem_accesses_per_sec = 25e6 * n_be;
  return cfg;
}

inline bool is_mtat(PolicyKind k) {
  return k == PolicyKind::kMtatFull || k == PolicyKind::kMtatLcOnly;
}

/// The paper drives its dynamic pattern "until it reaches the maximum
/// capacity that FMEM_ALL can handle" (§5.1) — i.e., the peak is FMEM_ALL's
/// *measured* max under co-location (including tier-bandwidth contention
/// from the BE fleet), not the standalone calibration target. Measured by
/// bisection; one measurement per (LC workload, BE setting).
inline double fmem_all_peak_krps(const Scale& sc, const LCConfig& lc,
                                 experiments::ParallelRunner& runner, obs::RunContext& parent,
                                 int n_be = 4, int be_cores = 4,
                                 double max_violation_rate = 0.002) {
  // The strict violation criterion keeps the measured peak off the knee's
  // edge: at 1 % the bisection can land where P99 is already drifting, and a
  // trapezoid driven exactly there rides the knee for its whole plateau.
  // The probe is pure — a fresh sim per load, no shared agent — so the
  // bisection's probes fan out (same result as serial: the speculative probe
  // set is jobs-invariant, see experiments::find_max_load).
  const auto probe = [&](double krps, obs::RunContext& ctx) {
    SimConfig cfg = make_sim_config(sc, lc, PolicyKind::kFmemAll, n_be, be_cores);
    ColocationSim sim(cfg, &ctx);
    return experiments::probe_slo_sustainable(sim, krps, seconds(15), seconds(20),
                                              max_violation_rate);
  };
  return experiments::find_max_load(probe, 0.3 * lc.max_load_krps, 1.2 * lc.max_load_krps, 5,
                                    runner, parent);
}

/// Train an MTAT sim's agent on `epochs` repetitions of the Figure-7 pattern
/// peaking at `peak_krps`, then clear measurement state. No-op for baselines.
inline void train_if_mtat(ColocationSim& sim, int epochs, double peak_krps) {
  if (!is_mtat(sim.config().policy)) return;
  const LoadPattern pattern = LoadPattern::figure7(peak_krps * 1000.0);
  for (int e = 0; e < epochs; ++e) sim.run(pattern, pattern.total_length(), /*measure=*/false);
  sim.reset_stats();
}

/// All six comparison points, in the paper's reporting order.
inline std::vector<PolicyKind> all_policies() {
  return {PolicyKind::kMtatFull, PolicyKind::kMtatLcOnly, PolicyKind::kMemtis,
          PolicyKind::kTpp,      PolicyKind::kFmemAll,    PolicyKind::kSmemAll};
}

/// A bench binary's root run context (see the header comment): built once,
/// by banner(), from bench::Env. A malformed MTAT_FAULTS spec warns and runs
/// clean — the fail-safe direction for a knob whose whole point is
/// resilience testing.
class RootContext : public obs::RunContext {
 public:
  RootContext() {
    const Env& env = Env::get();
    if (!env.faults.empty()) {
      if (const auto plan = faults::FaultPlan::from_spec(env.faults)) {
        install_faults(*plan);
        std::fprintf(stderr, "MTAT_FAULTS: injecting plan %s (seed %llu)\n", env.faults.c_str(),
                     (unsigned long long)plan->seed);
      } else {
        std::fprintf(stderr,
                     "warning: invalid MTAT_FAULTS=%s (expected storm or storm:X with X in "
                     "[0,1]); running without fault injection\n",
                     env.faults.c_str());
      }
    }
    if (!env.trace_path.empty()) trace().enable(env.trace_events);
  }

  /// Writes the MTAT_TRACE file, if one was asked for.
  ~RootContext() {
    const std::string& path = Env::get().trace_path;
    if (path.empty()) return;
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "MTAT_TRACE: cannot open %s\n", path.c_str());
      return;
    }
    trace().write_chrome_json(out);
    out << '\n';
    std::fprintf(stderr, "MTAT_TRACE: wrote %zu events to %s (%llu dropped)\n", trace().size(),
                 path.c_str(), (unsigned long long)trace().dropped());
  }
};

/// Print the experiment header, write the manifest sidecar, and return the
/// binary's root context; keep it alive until the end of main().
[[nodiscard]] inline RootContext banner(const char* experiment, const char* paper_ref) {
  const std::string preset = scale_preset_from_env();
  std::printf("================================================================\n");
  std::printf("%s  —  reproduces %s\n", experiment, paper_ref);
  std::printf("scale: %s (MTAT_SCALE=small|large)\n", preset.c_str());
  std::printf("================================================================\n");
  // Provenance sidecar next to the CSVs this binary writes: which binary,
  // which scale preset, which build. See DESIGN.md "Observability".
  obs::RunManifest m;
  m.tool = experiment;
  m.scale = preset;
  m.train_epochs = scale_from_env().train_epochs;
  m.add("paper_ref", paper_ref);
  m.write_file(std::string(experiment) + ".manifest.json");
  return RootContext();
}

}  // namespace mtat::bench
