// mtat_lint — repo-specific static analysis for the MTAT reproduction.
//
// clang-tidy knows C++; it does not know that "queue.arivals" is a typo that
// silently forks a metric series, or that one std::random_device call breaks
// the seed-determinism every experiment in this repo depends on. mtat_lint
// encodes those domain invariants as a small in-tree checker, run over the
// real tree as a ctest.
//
// v2 is a two-pass analyzer. Pass 1 lexes each translation unit into a real
// token stream (lexer.h: raw strings, splices, pp lines) and builds a
// lightweight file model (model.h: scopes, declarations, class members,
// range-for statements, include edges). Pass 2 runs the rules below over the
// tokens and the model — so a call whose name literal opens on the next line,
// or a declaration split across lines, is seen exactly like its one-line
// spelling.
//
// Token rules:
//  metric-name   String literals passed to MetricsRegistry::counter()/
//                gauge()/histogram(), TraceRecorder::instant()/complete()/
//                counter(), or WallSpan must not appear at call sites: names
//                live in src/obs/names.h and call sites use the constants.
//                A literal that is not even in the table is reported as an
//                unknown name (the typo case); a known name spelled inline is
//                reported as a literal to migrate.
//  unit-suffix   Metric names use the canonical unit suffixes (_us, _ms, _ns,
//                _bytes, _pages, _pct, _per_sec). Variants like _usec, _msec,
//                _percent, _kb are rejected with the canonical suggestion.
//  fault-name    String literals in the fault.* namespace are banned anywhere
//  cluster-name  (not just at call sites); same for cluster.* and perf.*.
//  perf-name     These families are audited across tools (perf_diff, the
//                placement policy, resilience claims), so the only blessed
//                spelling is the obs::names:: constant; names.h declares.
//  node-fault-name
//  failover-name The fleet failure domain's sub-families, split from their
//                parents (first-wins prefix match): fault.node_* (injected
//                node events) and cluster.failover_* (watchdog/evacuation/
//                restart outcomes) carry the §17 resilience claims, so they
//                get their own rules and their own allowlist rows.
//  nondet        Nondeterminism sources are banned: rand(), srand(),
//                std::random_device, system_clock, time(), clock(),
//                gettimeofday(), localtime/gmtime. Randomness comes from the
//                seeded common/rng.h; wall timing from steady_clock.
//  unsafe-parse  atoi/atof family and throwing std::sto* family are banned;
//                use common/parse.h or a checked strtol pattern.
//  getenv        Direct std::getenv is banned; bench::Env (bench/env.h) is
//                the one validated knob parser.
//  ns-header     `using namespace` in a header leaks into every includer.
//  pointer-order Ordering or keying by pointer value — std::map/std::set
//                keyed by a pointer type, or uintptr_t/intptr_t conversions —
//                follows allocation addresses, which differ run to run.
//  tier-literal  The two-tier aliases Tier::kFMem / Tier::kSMem are confined
//                to the memory substrate (src/mem/, where they are defined)
//                and to tests (which pin two-tier fixtures deliberately).
//                Everywhere else spells tiers as kFastestTier, TierId
//                arithmetic, or the slower-aggregate telemetry queries, so
//                the code keeps working on N-tier topologies.
//
// Model rules:
//  shared-mutable
//                Non-const namespace-scope variables, function-local
//                `static`s, and non-const static data members are mutable
//                state shared across threads and calls: writes are schedule-
//                dependent and initialization order is fragile. Pass state
//                through explicitly. Intentional process-globals (an atomic
//                reentrancy latch, a guarded memo cache, a benchmark sink)
//                carry an inline suppression with an ownership note.
//  unordered-iter
//                Iterating a std::unordered_map/set (range-for over it, or
//                walking its .begin()) visits elements in hash/bucket order,
//                which can leak into results, metrics, or trace order. Use an
//                ordered container or drain into a sorted vector first.
//  guarded-by    Every mutex data member must be referenced by at least one
//                thread-safety annotation (GUARDED_BY/REQUIRES/..., from
//                src/common/thread_annotations.h) in its class, so the
//                lock-to-data mapping is explicit even on GCC-only machines;
//                clang's -Wthread-safety lane then proves it.
//  stale-suppression
//                A `mtat-lint: allow(<rule>)` comment that suppresses nothing
//                on its line, or an allowlist.txt entry whose file produced
//                no finding of that rule, is reported: stale suppressions are
//                how rules rot.
//
// Doc rule:
//  doc-sync      The metric section of src/obs/names.h must match the
//                DESIGN.md §9 metric table name-for-name (and the trace-event
//                section the §9 trace table), so code, docs, and dumps
//                cannot drift.
//
// Suppression: a finding on a line whose *comment* contains
// `mtat-lint: allow(<rule>)` is suppressed (the marker must share the line
// with the finding — for a declaration that is the line of the declared
// name); whole files are exempted per-rule in tools/lint/allowlist.txt
// (`<rule> <repo-relative-path>` lines). Both forms are usage-tracked and
// reported by stale-suppression when dead.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace mtat::lint {

struct Finding {
  std::string file;     ///< repo-relative path (forward slashes)
  int line = 0;         ///< 1-based; 0 for file-level findings
  std::string rule;     ///< rule id, e.g. "metric-name"
  std::string message;  ///< human-readable, actionable
};

/// The name table parsed from src/obs/names.h's `mtat-lint: section=` blocks.
struct NameTable {
  std::set<std::string> metrics;
  std::set<std::string> trace_events;
  std::set<std::string> categories;

  bool contains(const std::string& name) const {
    return metrics.count(name) != 0 || trace_events.count(name) != 0 ||
           categories.count(name) != 0;
  }
  bool empty() const { return metrics.empty() && trace_events.empty() && categories.empty(); }
};

/// Per-rule file exemptions loaded from tools/lint/allowlist.txt.
struct Allowlist {
  struct Entry {
    int line = 0;  ///< line in the allowlist file (for stale reports)
    std::string rule;
    std::string path;
  };
  std::vector<Entry> entries;
  std::map<std::string, std::set<std::string>> files_by_rule;

  bool allows(const std::string& rule, const std::string& rel_path) const {
    const auto it = files_by_rule.find(rule);
    return it != files_by_rule.end() && it->second.count(rel_path) != 0;
  }
};

/// Which suppressions fired, accumulated across lint_source() calls so run()
/// can report stale allowlist entries. (Stale *inline* markers are local to a
/// file and reported by lint_source itself.)
struct SuppressionUsage {
  std::set<std::pair<std::string, std::string>> allowlist_entries;  ///< (rule, path)
};

struct Options {
  std::filesystem::path root;  ///< repo root; all defaults are relative to it
  std::vector<std::string> dirs = {"src", "bench", "tests", "tools", "examples"};
  std::string names_header = "src/obs/names.h";
  std::string design_doc = "DESIGN.md";
  std::string allowlist_file = "tools/lint/allowlist.txt";
  bool check_docs = true;
};

/// Canonical replacement for a non-canonical unit suffix on `name`, or
/// nullptr when the name is fine ("x.wall_usec" -> "us").
const char* bad_unit_suffix(const std::string& name);

/// Parse the `mtat-lint: section=` blocks of a names header. Parse errors
/// (missing file, literal outside a section) are appended to `out`.
NameTable load_name_table(const std::filesystem::path& header, std::vector<Finding>& out);

/// Parse an allowlist file; missing file is fine (empty allowlist).
Allowlist load_allowlist(const std::filesystem::path& file, std::vector<Finding>& out);

/// Lint one source file's contents. `rel_path` appears in findings and is
/// what allowlist entries match against. Inline suppressions are checked
/// before allowlist entries; used allowlist suppressions are recorded in
/// `usage` when non-null.
void lint_source(const std::string& rel_path, const std::string& contents,
                 const NameTable& names, const Allowlist& allow, std::vector<Finding>& out,
                 SuppressionUsage* usage = nullptr);

/// Cross-check names.h against the DESIGN.md marker-delimited name tables.
void crosscheck_design(const std::filesystem::path& design_doc, const std::string& doc_rel_path,
                       const NameTable& names, std::vector<Finding>& out);

/// Walk `opt.dirs` under `opt.root`, lint every .h/.hpp/.cc/.cpp file
/// (skipping fixtures/, build trees, and hidden directories), report stale
/// allowlist entries for scanned files, and cross-check the docs. Findings
/// come back sorted by file then line.
std::vector<Finding> run(const Options& opt);

/// run() + print findings as `file:line: [rule] message` to `diag`.
/// Returns the number of findings (0 == clean).
int run_and_report(const Options& opt, std::ostream& diag);

}  // namespace mtat::lint
