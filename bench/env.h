// The benchmark suite's environment knobs, parsed once.
//
// Every MTAT_* environment variable the bench binaries honour is read here —
// exactly once per process, through common/parse.h's checked parsers — and
// exposed as a plain struct. Malformed values are rejected with a stderr
// warning and the documented default, never silently coerced (bare atoi
// would turn MTAT_EPOCHS=abc into zero training epochs). This file is the
// only place in the tree allowed to call std::getenv (mtat_lint's `getenv`
// rule enforces that); everything else asks bench::Env.
//
// Knobs:
//   MTAT_SCALE        smoke|small|large scale preset (default small; smoke is
//                                      a seconds-long CI preset)
//   MTAT_EPOCHS       non-negative int RL training epochs override
//   MTAT_TRACE        path             enable the root context's recorder and
//                                      write its Chrome trace_event file when
//                                      main() ends (bench::banner's root)
//   MTAT_TRACE_EVENTS positive int     trace ring capacity override (the
//                                      root's, and every spec ring's)
//   MTAT_JOBS         non-negative int experiment parallelism; 0 = one job
//                                      per hardware thread (the default)
//   MTAT_NODES        positive int     cluster bench fleet size override
//                                      (default: the scale preset's node count)
//   MTAT_FAULTS       preset[:x]       fault-injection plan of the root
//                                      context, inherited by every run under
//                                      it (e.g. storm, storm:0.5); validated
//                                      against the known presets by
//                                      bench::banner (faults::FaultPlan)
//   MTAT_CLUSTER_FAULTS preset[:x][:warm|:cold] fleet-level fault plan for the
//                                      cluster benches (e.g. storm,
//                                      storm:0.5:cold); validated by
//                                      cluster_faults_from_env() via
//                                      faults::ClusterFaultPlan::from_spec
//   MTAT_PERF_LABEL   non-empty string label for the BENCH_*.json entry a
//                                      perf_* bench appends (default "run")
//   MTAT_TOPOLOGY     spec             tier topology override for the
//                                      co-location benches, fastest first
//                                      (e.g. dram:8G:73;cxl:64G:202;nvm:256G:450);
//                                      validated by the harness via
//                                      mtat::parse_topology
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/parse.h"
#include "obs/trace.h"

namespace mtat::bench {

struct Env {
  std::string scale = "small";        ///< MTAT_SCALE
  std::optional<int> epochs;          ///< MTAT_EPOCHS (unset: preset default)
  std::string trace_path;             ///< MTAT_TRACE (empty: tracing off)
  std::size_t trace_events =
      obs::TraceRecorder::kDefaultCapacity;  ///< MTAT_TRACE_EVENTS
  int jobs = 0;                       ///< MTAT_JOBS; 0 = hardware concurrency
  std::optional<int> nodes;           ///< MTAT_NODES (unset: preset default)
  /// MTAT_FAULTS, verbatim (empty: no faults). Kept as the raw spec so this
  /// header doesn't depend on the faults library; bench/harness.h's
  /// RootContext parses it via faults::FaultPlan::from_spec and warns on
  /// anything malformed.
  std::string faults;
  /// MTAT_CLUSTER_FAULTS, verbatim (empty: healthy fleet). Raw for the same
  /// reason as `faults`; bench/cluster_env.h's cluster_faults_from_env()
  /// parses it via faults::ClusterFaultPlan::from_spec and warns on anything
  /// malformed.
  std::string cluster_faults;
  std::string perf_label = "run";     ///< MTAT_PERF_LABEL
  /// MTAT_TOPOLOGY, verbatim (empty: benches keep their two-tier default).
  /// Raw for the same reason as `faults`: parsing lives with mem/topology.h's
  /// parse_topology, and bench/harness.h's topology_from_env() warns and
  /// falls back on anything malformed.
  std::string topology;

  /// The process's parsed environment (parsed on first use, then cached).
  static const Env& get();
};

namespace internal {

inline std::optional<std::string> env_string(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

inline Env parse_env() {
  Env e;
  if (const auto s = env_string("MTAT_SCALE")) {
    if (*s == "smoke" || *s == "small" || *s == "large") {
      e.scale = *s;
    } else {
      std::fprintf(stderr,
                   "warning: invalid MTAT_SCALE=%s (expected smoke|small|large); "
                   "using small\n",
                   s->c_str());
    }
  }
  if (const auto s = env_string("MTAT_EPOCHS")) {
    const auto v = parse_int(*s);
    if (v && *v >= 0 && *v <= 1'000'000) {
      e.epochs = *v;
    } else {
      std::fprintf(stderr,
                   "warning: invalid MTAT_EPOCHS=%s (expected a non-negative integer); "
                   "using the preset default\n",
                   s->c_str());
    }
  }
  if (const auto s = env_string("MTAT_TRACE")) e.trace_path = *s;
  if (const auto s = env_string("MTAT_TRACE_EVENTS")) {
    const auto v = parse_u64(*s);
    if (v && *v > 0) {
      e.trace_events = static_cast<std::size_t>(*v);
    } else {
      std::fprintf(stderr,
                   "warning: invalid MTAT_TRACE_EVENTS=%s (expected a positive integer); "
                   "using default %zu\n",
                   s->c_str(), e.trace_events);
    }
  }
  if (const auto s = env_string("MTAT_FAULTS")) e.faults = *s;
  if (const auto s = env_string("MTAT_CLUSTER_FAULTS")) e.cluster_faults = *s;
  if (const auto s = env_string("MTAT_PERF_LABEL")) e.perf_label = *s;
  if (const auto s = env_string("MTAT_TOPOLOGY")) e.topology = *s;
  if (const auto s = env_string("MTAT_NODES")) {
    const auto v = parse_int(*s);
    if (v && *v > 0 && *v <= 100'000) {
      e.nodes = *v;
    } else {
      std::fprintf(stderr,
                   "warning: invalid MTAT_NODES=%s (expected a positive integer); "
                   "using the preset default\n",
                   s->c_str());
    }
  }
  if (const auto s = env_string("MTAT_JOBS")) {
    const auto v = parse_int(*s);
    if (v && *v >= 0 && *v <= 4096) {
      e.jobs = *v;
    } else {
      std::fprintf(stderr,
                   "warning: invalid MTAT_JOBS=%s (expected a non-negative integer); "
                   "using hardware concurrency\n",
                   s->c_str());
    }
  }
  return e;
}

}  // namespace internal

inline const Env& Env::get() {
  static const Env parsed = internal::parse_env();
  return parsed;
}

}  // namespace mtat::bench
