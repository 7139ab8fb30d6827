// mtat_sim — command-line co-location experiment runner.
//
// Configures an arbitrary tiered-memory co-location from flags, runs it, and
// emits the per-interval series as CSV (stdout or file) plus a summary. The
// scriptable entry point for explorations that don't warrant a bench binary:
//
//   mtat_sim --policy=mtat_full --lc=redis --be=4 --pattern=fig7 --seconds=240
//   mtat_sim --policy=memtis --lc=memcached --load=0.5 --fmem-mib=256
//   mtat_sim --policy=mtat_full --lc=silo --train-epochs=8 --csv=run.csv
//
// Run with --help for the full flag list.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "common/csv.h"
#include "common/parse.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/run_context.h"
#include "mem/topology.h"
#include "sim/colocation_sim.h"
#include "workloads/be/be_suite.h"

using namespace mtat;

namespace {

struct Args {
  std::string policy = "mtat_full";
  std::string lc = "redis";
  int n_be = 4;
  int be_cores = 4;
  std::string pattern = "fig7";  // fig7 | constant
  double load_fraction = 0.5;    // of max load, for --pattern=constant
  double seconds_total = 240;
  double fmem_mib = 128;
  double smem_mib = 2048;
  std::string topology;  // overrides --fmem-mib/--smem-mib when set
  int train_epochs = 5;
  bool bandwidth = true;
  bool zipf = false;
  std::string csv_path;
  std::string trace_path;
  std::string metrics_path;
  std::uint64_t seed = 42;
};

[[noreturn]] void usage(int code) {
  std::printf(
      "mtat_sim — tiered-memory co-location runner\n\n"
      "  --policy=P        mtat_full|mtat_lc_only|memtis|memtis_hp|tpp|vtmm|damon|fmem_all|smem_all\n"
      "  --lc=W            redis|memcached|mongodb|silo\n"
      "  --be=N            number of BE workloads (1-4, from {sssp,bfs,pr,xsbench})\n"
      "  --be-cores=N      cores per BE workload (default 4)\n"
      "  --pattern=T       fig7 (paper trapezoid) or constant\n"
      "  --load=F          fraction of LC max load for --pattern=constant\n"
      "  --seconds=S       simulated duration (default 240)\n"
      "  --fmem-mib=M      fast tier size (default 128)\n"
      "  --smem-mib=M      slow tier size (default 2048)\n"
      "  --topology=SPEC   tier vector, fastest first, overriding --fmem-mib/--smem-mib\n"
      "                    (name:capacity:latency_ns[:link_bw] entries joined by ';',\n"
      "                    e.g. 'dram:8G:73;cxl:64G:202;nvm:256G:450')\n"
      "  --train-epochs=N  RL training passes before measuring (MTAT only)\n"
      "  --no-bandwidth    disable the tier-bandwidth contention model\n"
      "  --zipf            zipfian LC requests instead of uniform\n"
      "  --csv=PATH        write the per-interval series to PATH\n"
      "  --trace-out=PATH  write a Chrome trace_event JSON (chrome://tracing, Perfetto)\n"
      "  --metrics-out=PATH  write the metrics registry + run manifest as JSON\n"
      "  --seed=N          simulation seed\n");
  std::exit(code);
}

// Parse a numeric flag value or die with usage(2) — a malformed count or
// duration should stop the run, not silently become 0 (the old atoi behaviour).
template <typename T, typename Parser>
T num_flag(const std::string& key, const std::string& val, Parser parse_fn) {
  const std::optional<T> v = parse_fn(val);
  if (!v) {
    std::fprintf(stderr, "bad value for %s: '%s'\n\n", key.c_str(), val.c_str());
    usage(2);
  }
  return *v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--help" || key == "-h") usage(0);
    else if (key == "--policy") a.policy = val;
    else if (key == "--lc") a.lc = val;
    else if (key == "--be") a.n_be = num_flag<int>(key, val, parse_int);
    else if (key == "--be-cores") a.be_cores = num_flag<int>(key, val, parse_int);
    else if (key == "--pattern") a.pattern = val;
    else if (key == "--load") a.load_fraction = num_flag<double>(key, val, parse_double);
    else if (key == "--seconds") a.seconds_total = num_flag<double>(key, val, parse_double);
    else if (key == "--fmem-mib") a.fmem_mib = num_flag<double>(key, val, parse_double);
    else if (key == "--smem-mib") a.smem_mib = num_flag<double>(key, val, parse_double);
    else if (key == "--topology") a.topology = val;
    else if (key == "--train-epochs") a.train_epochs = num_flag<int>(key, val, parse_int);
    else if (key == "--no-bandwidth") a.bandwidth = false;
    else if (key == "--zipf") a.zipf = true;
    else if (key == "--csv") a.csv_path = val;
    else if (key == "--trace-out") a.trace_path = val;
    else if (key == "--metrics-out") a.metrics_path = val;
    else if (key == "--seed") a.seed = num_flag<std::uint64_t>(key, val, parse_u64);
    else {
      std::fprintf(stderr, "unknown flag: %s\n\n", arg.c_str());
      usage(2);
    }
  }
  return a;
}

PolicyKind policy_from(const std::string& s) {
  static const std::map<std::string, PolicyKind> kMap = {
      {"mtat_full", PolicyKind::kMtatFull}, {"mtat_lc_only", PolicyKind::kMtatLcOnly},
      {"memtis", PolicyKind::kMemtis},      {"memtis_hp", PolicyKind::kMemtisHp},
      {"tpp", PolicyKind::kTpp},
      {"vtmm", PolicyKind::kVtmm},          {"damon", PolicyKind::kDamon},
      {"fmem_all", PolicyKind::kFmemAll},
      {"smem_all", PolicyKind::kSmemAll}};
  const auto it = kMap.find(s);
  if (it == kMap.end()) {
    std::fprintf(stderr, "unknown policy: %s\n", s.c_str());
    usage(2);
  }
  return it->second;
}

LCConfig lc_from(const Args& a) {
  LCConfig c;
  if (a.lc == "redis") c = redis_config();
  else if (a.lc == "memcached") c = memcached_config();
  else if (a.lc == "mongodb") c = mongodb_config();
  else if (a.lc == "silo") c = silo_config();
  else {
    std::fprintf(stderr, "unknown LC workload: %s\n", a.lc.c_str());
    usage(2);
  }
  // Size the footprint to ~1.05x FMem, as in the paper.
  const Bytes fmem = static_cast<Bytes>(a.fmem_mib * 1024 * 1024);
  c.n_records = static_cast<std::uint64_t>(1.05 * static_cast<double>(fmem) /
                                           static_cast<double>(c.record_size));
  if (a.zipf) c.dist = RequestDist::kZipfian;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  // The run's one context; tracing is enabled before the sim exists so
  // construction-time events are captured.
  obs::RunContext ctx;
  if (!a.trace_path.empty()) ctx.trace().enable();

  SimConfig cfg;
  cfg.fmem = static_cast<Bytes>(a.fmem_mib * 1024 * 1024);
  cfg.smem = static_cast<Bytes>(a.smem_mib * 1024 * 1024);
  if (!a.topology.empty()) {
    // Flags fail hard on bad input (unlike MTAT_TOPOLOGY, which warns and
    // falls back): an explicit --topology the user typed must not be ignored.
    std::string error;
    const auto tiers = parse_topology(a.topology, &error);
    if (!tiers) {
      std::fprintf(stderr, "bad value for --topology: %s\n\n", error.c_str());
      usage(2);
    }
    cfg.tiers = *tiers;
  }
  cfg.lc = lc_from(a);
  cfg.be = be_suite(BEScale::kDefault, cfg.fmem + cfg.fmem / 10, a.be_cores, a.n_be);
  cfg.policy = policy_from(a.policy);
  cfg.seed = a.seed;
  if (a.bandwidth) {
    cfg.bandwidth.enabled = true;
    cfg.bandwidth.fmem_accesses_per_sec = 150e6 * a.n_be;
    cfg.bandwidth.smem_accesses_per_sec = 25e6 * a.n_be;
  }

  ColocationSim sim(cfg, &ctx);
  const double max_rps = cfg.lc.max_load_krps * 1000.0;
  const LoadPattern pattern = a.pattern == "constant"
                                  ? LoadPattern::constant(a.load_fraction * max_rps)
                                  : LoadPattern::figure7(max_rps);
  const auto duration = static_cast<Duration>(a.seconds_total * 1e9);

  if (cfg.policy == PolicyKind::kMtatFull || cfg.policy == PolicyKind::kMtatLcOnly) {
    std::fprintf(stderr, "training %d epochs...\n", a.train_epochs);
    for (int e = 0; e < a.train_epochs; ++e)
      sim.run(pattern, pattern.total_length(), /*measure=*/false);
    sim.reset_stats();
  }
  std::fprintf(stderr, "measuring %.0f s under %s...\n", a.seconds_total, a.policy.c_str());
  const SimTime t0 = sim.now();
  sim.run(pattern, duration);
  const SimResult r = sim.result();

  // --- series ---------------------------------------------------------------
  std::vector<std::string> cols = {"t_sec", "offered_rps", "lc_p99_ms", "lc_tput_rps",
                                   "lc_fmem_share"};
  for (std::size_t i = 0; i < sim.be_count(); ++i) {
    cols.push_back(sim.be(i).config().name + "_share");
    cols.push_back(sim.be(i).config().name + "_rate");
  }
  std::unique_ptr<CsvWriter> csv;
  if (!a.csv_path.empty()) csv = std::make_unique<CsvWriter>(a.csv_path, cols);
  for (const TimePoint& tp : r.series) {
    std::vector<double> row = {tp.t_sec - to_seconds(t0), tp.offered_rps, tp.lc_p99_ms,
                               tp.lc_throughput_rps, tp.lc_fmem_share};
    for (std::size_t i = 0; i < sim.be_count(); ++i) {
      row.push_back(tp.be_fmem_share[i]);
      row.push_back(tp.be_throughput[i]);
    }
    if (csv) csv->row(row);
  }

  // --- summary ----------------------------------------------------------------
  std::printf("policy          %s\n", policy_name(cfg.policy));
  std::printf("lc              %s (%d threads, SLO %.0f ms, max %.1f KRPS)\n",
              cfg.lc.name.c_str(), cfg.lc.threads, static_cast<double>(cfg.lc.slo) / 1e6,
              cfg.lc.max_load_krps);
  std::printf("lc p99          %.2f ms\n", r.lc_p99_ms);
  std::printf("slo violations  %.2f %%\n", 100.0 * r.slo_violation_rate);
  std::printf("lc completed    %llu requests\n", (unsigned long long)r.lc_completed);
  for (std::size_t i = 0; i < sim.be_count(); ++i)
    std::printf("be %-9s    %.3e iters/s (NP %.3f)\n", sim.be(i).config().name.c_str(),
                r.be_rate[i], r.be_np[i]);
  std::printf("fairness        %.3f (min NP)\n", r.fairness);
  std::printf("migration       %.1f MB/s\n", r.migration_bytes_per_sec / 1e6);
  std::printf("policy wall     %.1f us/interval\n", r.policy_wall_us_per_interval);
  if (!a.csv_path.empty()) std::printf("series          %s\n", a.csv_path.c_str());

  // --- observability sidecars -------------------------------------------------
  int rc = 0;
  if (!a.trace_path.empty()) {
    std::ofstream out(a.trace_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n", a.trace_path.c_str());
      rc = 1;
    } else {
      ctx.trace().write_chrome_json(out);
      out << '\n';
      std::printf("trace           %s (%zu events, %llu dropped)\n", a.trace_path.c_str(),
                  ctx.trace().size(), (unsigned long long)ctx.trace().dropped());
    }
  }
  if (!a.metrics_path.empty()) {
    obs::RunManifest manifest;
    manifest.tool = "mtat_sim";
    manifest.seed = a.seed;
    const bool mtat = cfg.policy == PolicyKind::kMtatFull || cfg.policy == PolicyKind::kMtatLcOnly;
    manifest.train_epochs = mtat ? a.train_epochs : -1;
    manifest.add("policy", a.policy);
    manifest.add("lc", a.lc);
    manifest.add("n_be", std::to_string(a.n_be));
    manifest.add("be_cores", std::to_string(a.be_cores));
    manifest.add("pattern", a.pattern);
    manifest.add("load_fraction", std::to_string(a.load_fraction));
    manifest.add("seconds", std::to_string(a.seconds_total));
    manifest.add("fmem_mib", std::to_string(a.fmem_mib));
    manifest.add("smem_mib", std::to_string(a.smem_mib));
    if (!a.topology.empty()) manifest.add("topology", topology_to_string(cfg.tiers));
    manifest.add("bandwidth_model", a.bandwidth ? "on" : "off");
    manifest.add("zipf", a.zipf ? "on" : "off");
    std::ofstream out(a.metrics_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n", a.metrics_path.c_str());
      return 1;
    }
    out << "{\"manifest\":";
    manifest.write_json(out);
    out << ",\"metrics\":";
    sim.metrics().write_json(out);
    // json_number keeps full precision so the summary values are bit-equal
    // to the registry's derived.* gauges (they are the same numbers).
    out << ",\"summary\":{\"lc_p99_ms\":";
    obs::json_number(out, r.lc_p99_ms);
    out << ",\"slo_violation_rate\":";
    obs::json_number(out, r.slo_violation_rate);
    out << ",\"lc_completed\":" << r.lc_completed << ",\"fairness\":";
    obs::json_number(out, r.fairness);
    out << ",\"be_total_throughput\":";
    obs::json_number(out, r.be_total_throughput);
    out << ",\"migration_bytes_per_sec\":";
    obs::json_number(out, r.migration_bytes_per_sec);
    out << ",\"policy_wall_us_per_interval\":";
    obs::json_number(out, r.policy_wall_us_per_interval);
    out << "}}\n";
    std::printf("metrics         %s\n", a.metrics_path.c_str());
  }
  return rc;
}
