// mtat_lint unit tests: every rule driven over the seeded fixtures in
// tools/lint/fixtures/, the suppression mechanisms, the names-header and
// DESIGN.md table parsers — and the real tree, which must lint clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

namespace mtat::lint {
namespace {

namespace fs = std::filesystem;

const fs::path kRepoRoot = MTAT_SOURCE_DIR;
const fs::path kFixtures = kRepoRoot / "tools" / "lint" / "fixtures";

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

NameTable real_table() {
  std::vector<Finding> findings;
  NameTable t = load_name_table(kRepoRoot / "src" / "obs" / "names.h", findings);
  EXPECT_TRUE(findings.empty());
  return t;
}

/// Lint one fixture file against the real name table.
std::vector<Finding> lint_fixture(const std::string& name, const Allowlist& allow = {}) {
  std::vector<Finding> out;
  lint_source(name, slurp(kFixtures / name), real_table(), allow, out);
  return out;
}

bool has(const std::vector<Finding>& fs, const std::string& rule, int line,
         const std::string& msg_substr) {
  return std::any_of(fs.begin(), fs.end(), [&](const Finding& f) {
    return f.rule == rule && f.line == line &&
           f.message.find(msg_substr) != std::string::npos;
  });
}

std::string dump(const std::vector<Finding>& fs) {
  std::ostringstream ss;
  for (const Finding& f : fs) ss << f.file << ':' << f.line << ": [" << f.rule << "] "
                                 << f.message << '\n';
  return ss.str();
}

// ---------------------------------------------------------------- unit rule --

TEST(UnitSuffix, MapsNonCanonicalSuffixesToCanonical) {
  EXPECT_STREQ(bad_unit_suffix("policy.wall_usec"), "us");
  EXPECT_STREQ(bad_unit_suffix("x.lat_msec"), "ms");
  EXPECT_STREQ(bad_unit_suffix("x.lat_nanos"), "ns");
  EXPECT_STREQ(bad_unit_suffix("migration.moved_kb"), "bytes");
  EXPECT_STREQ(bad_unit_suffix("mem.size_mib"), "bytes");
  EXPECT_STREQ(bad_unit_suffix("lc.violation_percent"), "pct");
  EXPECT_STREQ(bad_unit_suffix("net.rate_bps"), "bytes_per_sec");
}

TEST(UnitSuffix, HistTailIsTransparent) {
  EXPECT_STREQ(bad_unit_suffix("policy.wall_usec_hist"), "us");
  EXPECT_EQ(bad_unit_suffix("policy.wall_us_hist"), nullptr);
}

TEST(UnitSuffix, CanonicalNamesPass) {
  EXPECT_EQ(bad_unit_suffix("policy.wall_us"), nullptr);
  EXPECT_EQ(bad_unit_suffix("derived.migration_bytes_per_sec"), nullptr);
  EXPECT_EQ(bad_unit_suffix("mtat.lc_quota_pages"), nullptr);
  EXPECT_EQ(bad_unit_suffix("queue.arrivals"), nullptr);
}

// --------------------------------------------------------------- name table --

TEST(NameTable, ParsesRealHeaderWithoutFindings) {
  std::vector<Finding> findings;
  const NameTable t = load_name_table(kRepoRoot / "src" / "obs" / "names.h", findings);
  EXPECT_TRUE(findings.empty()) << dump(findings);
  EXPECT_TRUE(t.metrics.count("queue.arrivals"));
  EXPECT_TRUE(t.metrics.count("migration.pages_moved"));
  // This declaration wraps onto a continuation line in names.h — the parser
  // must still pick it up.
  EXPECT_TRUE(t.metrics.count("derived.policy_wall_us_per_interval"));
  EXPECT_TRUE(t.trace_events.count("ppm.decide"));
  EXPECT_TRUE(t.categories.count("sim"));
  EXPECT_FALSE(t.metrics.count("wall"));  // helper-function literal, not a name
}

TEST(NameTable, FixtureHeaderReportsStrayDupeAndBadSuffix) {
  std::vector<Finding> findings;
  const NameTable t = load_name_table(kFixtures / "names_fixture.h", findings);
  EXPECT_TRUE(t.metrics.count("queue.arrivals"));
  EXPECT_TRUE(t.metrics.count("policy.wall_usec"));
  EXPECT_TRUE(t.trace_events.count("queue.overload"));
  EXPECT_TRUE(t.categories.count("queue"));
  EXPECT_TRUE(has(findings, "doc-sync", 6, "outside a mtat-lint section")) << dump(findings);
  EXPECT_TRUE(has(findings, "unit-suffix", 11, "use _us")) << dump(findings);
  EXPECT_TRUE(has(findings, "doc-sync", 12, "duplicate name")) << dump(findings);
  EXPECT_EQ(findings.size(), 3u) << dump(findings);
}

// ------------------------------------------------------------- source rules --

TEST(LintSource, GoodFixtureIsClean) {
  const auto findings = lint_fixture("good.cc");
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(LintSource, UnknownMetricNameIsReportedAsTypo) {
  const auto findings = lint_fixture("bad_unknown_metric.cc");
  ASSERT_EQ(findings.size(), 1u) << dump(findings);
  EXPECT_TRUE(has(findings, "metric-name", 5, "unknown metric/trace name \"queue.arivals\""));
}

TEST(LintSource, KnownNameSpelledInlineMustUseConstant) {
  const auto findings = lint_fixture("bad_inline_literal.cc");
  EXPECT_TRUE(has(findings, "metric-name", 4, "use the obs::names:: constant"))
      << dump(findings);
  EXPECT_TRUE(has(findings, "metric-name", 5, "use the obs::names:: constant"))
      << dump(findings);
  EXPECT_EQ(findings.size(), 2u) << dump(findings);
}

TEST(LintSource, FaultDomainLiteralsFlaggedAnywhereOnALine) {
  const auto findings = lint_fixture("bad_fault_literal.cc");
  // A known fault.* name at a call site: both the call-site rule and the
  // stricter anywhere-rule fire.
  EXPECT_TRUE(has(findings, "fault-name", 6, "use the obs::names:: constant"))
      << dump(findings);
  // A known fault.* name in a bare comparison — no registry call, so only
  // fault-name can catch it.
  EXPECT_TRUE(has(findings, "fault-name", 7, "use the obs::names:: constant"))
      << dump(findings);
  EXPECT_FALSE(has(findings, "metric-name", 7, "")) << dump(findings);
  // A typo'd fault.* name reads as an unknown to declare.
  EXPECT_TRUE(has(findings, "fault-name", 8, "unknown fault-domain name"))
      << dump(findings);
}

TEST(LintSource, ClusterDomainLiteralsFlaggedAnywhereOnALine) {
  const auto findings = lint_fixture("bad_cluster_literal.cc");
  // A known cluster.* name at a call site: both the call-site rule and the
  // stricter anywhere-rule fire.
  EXPECT_TRUE(has(findings, "cluster-name", 6, "use the obs::names:: constant"))
      << dump(findings);
  // A known cluster.* name in a bare comparison — no registry call, so only
  // cluster-name can catch it.
  EXPECT_TRUE(has(findings, "cluster-name", 7, "use the obs::names:: constant"))
      << dump(findings);
  EXPECT_FALSE(has(findings, "metric-name", 7, "")) << dump(findings);
  // A typo'd cluster.* name reads as an unknown to declare.
  EXPECT_TRUE(has(findings, "cluster-name", 8, "unknown cluster-domain name"))
      << dump(findings);
}

TEST(LintSource, NodeFaultSubFamilyReportsUnderItsOwnRule) {
  const auto findings = lint_fixture("bad_node_fault_literal.cc");
  // First-wins prefix matching: fault.node_* literals report as
  // node-fault-name, never as the parent fault-name rule.
  EXPECT_TRUE(has(findings, "node-fault-name", 6, "use the obs::names:: constant"))
      << dump(findings);
  EXPECT_TRUE(has(findings, "node-fault-name", 7, "use the obs::names:: constant"))
      << dump(findings);
  EXPECT_FALSE(has(findings, "fault-name", 6, "")) << dump(findings);
  EXPECT_FALSE(has(findings, "fault-name", 7, "")) << dump(findings);
  // A typo'd fault.node_* name reads as an unknown to declare.
  EXPECT_TRUE(has(findings, "node-fault-name", 8, "unknown node-fault-domain name"))
      << dump(findings);
}

TEST(LintSource, FailoverSubFamilyReportsUnderItsOwnRule) {
  const auto findings = lint_fixture("bad_failover_literal.cc");
  EXPECT_TRUE(has(findings, "failover-name", 6, "use the obs::names:: constant"))
      << dump(findings);
  EXPECT_TRUE(has(findings, "failover-name", 7, "use the obs::names:: constant"))
      << dump(findings);
  EXPECT_FALSE(has(findings, "cluster-name", 6, "")) << dump(findings);
  EXPECT_FALSE(has(findings, "cluster-name", 7, "")) << dump(findings);
  EXPECT_TRUE(has(findings, "failover-name", 8, "unknown failover-domain name"))
      << dump(findings);
}

TEST(LintSource, PerfDomainLiteralsFlaggedAnywhereOnALine) {
  const auto findings = lint_fixture("bad_perf_literal.cc");
  // A known perf.* name at a call site: both the call-site rule and the
  // stricter anywhere-rule fire.
  EXPECT_TRUE(has(findings, "perf-name", 6, "use the obs::names:: constant"))
      << dump(findings);
  // A known perf.* name in a bare comparison — no registry call, so only
  // perf-name can catch it.
  EXPECT_TRUE(has(findings, "perf-name", 7, "use the obs::names:: constant"))
      << dump(findings);
  EXPECT_FALSE(has(findings, "metric-name", 7, "")) << dump(findings);
  // A typo'd perf.* name reads as an unknown to declare.
  EXPECT_TRUE(has(findings, "perf-name", 8, "unknown perf-domain name"))
      << dump(findings);
}

TEST(LintSource, NonCanonicalUnitSuffixesAtCallSites) {
  const auto findings = lint_fixture("bad_unit_suffix.cc");
  EXPECT_TRUE(has(findings, "unit-suffix", 4, "use _us")) << dump(findings);
  EXPECT_TRUE(has(findings, "unit-suffix", 5, "use _pct")) << dump(findings);
  EXPECT_TRUE(has(findings, "unit-suffix", 6, "use _bytes")) << dump(findings);
}

TEST(LintSource, NondeterminismSourcesAreBanned) {
  const auto findings = lint_fixture("bad_nondet.cc");
  EXPECT_TRUE(has(findings, "nondet", 9, "std::random_device")) << dump(findings);
  EXPECT_TRUE(has(findings, "nondet", 14, "system_clock")) << dump(findings);
  EXPECT_TRUE(has(findings, "nondet", 15, "time()")) << dump(findings);
  EXPECT_TRUE(has(findings, "nondet", 15, "rand()")) << dump(findings);
  EXPECT_EQ(findings.size(), 4u) << dump(findings);
}

TEST(LintSource, UncheckedParsesAreBanned) {
  const auto findings = lint_fixture("bad_parse.cc");
  for (int line : {7, 8, 9, 10})
    EXPECT_TRUE(has(findings, "unsafe-parse", line, "parse")) << dump(findings);
  EXPECT_EQ(findings.size(), 4u) << dump(findings);
}

TEST(LintSource, DirectGetenvIsBanned) {
  const auto findings = lint_fixture("bad_getenv.cc");
  EXPECT_TRUE(has(findings, "getenv", 7, "bench::Env")) << dump(findings);
  EXPECT_TRUE(has(findings, "getenv", 12, "bench::Env")) << dump(findings);
  EXPECT_EQ(findings.size(), 2u) << dump(findings);
}

TEST(LintSource, UsingNamespaceOnlyFlaggedInHeaders) {
  const std::string contents = slurp(kFixtures / "bad_using_namespace.h");
  std::vector<Finding> header_findings;
  lint_source("bad_using_namespace.h", contents, real_table(), {}, header_findings);
  EXPECT_TRUE(has(header_findings, "ns-header", 5, "using namespace"))
      << dump(header_findings);
  // The same directive in a .cc file is fine.
  std::vector<Finding> cc_findings;
  lint_source("same_content.cc", contents, real_table(), {}, cc_findings);
  EXPECT_TRUE(cc_findings.empty()) << dump(cc_findings);
}

TEST(LintSource, MutableSharedStateIsReportedPerScope) {
  const auto findings = lint_fixture("bad_shared_state.cc");
  EXPECT_TRUE(has(findings, "shared-mutable", 4, "'g_calls' (namespace scope)"))
      << dump(findings);
  EXPECT_TRUE(has(findings, "shared-mutable", 9, "'count' (function-local static)"))
      << dump(findings);
  EXPECT_TRUE(has(findings, "shared-mutable", 14, "'live' (static data member)"))
      << dump(findings);
  // The const namespace-scope constant on line 5 must NOT be flagged.
  EXPECT_EQ(findings.size(), 3u) << dump(findings);
}

TEST(LintSource, UnorderedIterationOrderLeaks) {
  const auto findings = lint_fixture("bad_unordered_iter.cc");
  // Both spellings: the range-for and the explicit .begin() iterator loop.
  EXPECT_TRUE(has(findings, "unordered-iter", 10, "'scores'")) << dump(findings);
  EXPECT_TRUE(has(findings, "unordered-iter", 11, "'scores'")) << dump(findings);
  EXPECT_EQ(findings.size(), 2u) << dump(findings);
}

TEST(LintSource, PointerKeyedOrderIsNondeterministic) {
  const auto findings = lint_fixture("bad_pointer_order.cc");
  EXPECT_TRUE(has(findings, "pointer-order", 10, "std::set with a pointer key"))
      << dump(findings);
  EXPECT_TRUE(has(findings, "pointer-order", 11, "std::map with a pointer key"))
      << dump(findings);
  EXPECT_TRUE(has(findings, "pointer-order", 12, "uintptr_t")) << dump(findings);
  EXPECT_EQ(findings.size(), 3u) << dump(findings);
}

TEST(LintSource, UnannotatedMutexMemberIsReported) {
  const auto findings = lint_fixture("bad_guarded_by.cc");
  EXPECT_TRUE(has(findings, "guarded-by", 14, "mutex member 'mu_' of BadLocked"))
      << dump(findings);
  EXPECT_EQ(findings.size(), 1u) << dump(findings);
}

TEST(LintSource, TierLiteralsOutsideMemAndTestsAreReported) {
  const auto findings = lint_fixture("bad_tier_literal.cc");
  EXPECT_TRUE(has(findings, "tier-literal", 6, "Tier::kFMem")) << dump(findings);
  EXPECT_TRUE(has(findings, "tier-literal", 7, "Tier::kSMem")) << dump(findings);
  EXPECT_EQ(findings.size(), 2u) << dump(findings);
}

TEST(LintSource, TierLiteralsAllowedInMemSubstrateAndTests) {
  // The same contents are clean when the file lives under src/mem/ (where
  // the aliases are defined) or tests/ (two-tier fixtures are deliberate).
  const std::string contents = slurp(kFixtures / "bad_tier_literal.cc");
  for (const char* rel : {"src/mem/some_file.cc", "tests/some_test.cc"}) {
    std::vector<Finding> out;
    lint_source(rel, contents, real_table(), {}, out);
    EXPECT_TRUE(out.empty()) << rel << ":\n" << dump(out);
  }
}

TEST(LintSource, StaleInlineAllowMarkerIsReported) {
  const auto findings = lint_fixture("bad_stale_allow.cc");
  EXPECT_TRUE(has(findings, "stale-suppression", 4, "allow(nondet)")) << dump(findings);
  EXPECT_EQ(findings.size(), 1u) << dump(findings);
}

// -------------------------------------------------------------- suppression --

TEST(Suppression, InlineAllowMarkersSuppressEachRule) {
  const auto findings = lint_fixture("allowed.cc");
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(Suppression, AllowlistExemptsWholeFilePerRule) {
  Allowlist allow;
  allow.files_by_rule["metric-name"].insert("bad_unknown_metric.cc");
  const auto findings = lint_fixture("bad_unknown_metric.cc", allow);
  EXPECT_TRUE(findings.empty()) << dump(findings);
  // The exemption is per-rule: it does not cover other rules in the file.
  Allowlist wrong_rule;
  wrong_rule.files_by_rule["nondet"].insert("bad_unknown_metric.cc");
  EXPECT_EQ(lint_fixture("bad_unknown_metric.cc", wrong_rule).size(), 1u);
}

TEST(Suppression, RealAllowlistParses) {
  std::vector<Finding> findings;
  const Allowlist allow =
      load_allowlist(kRepoRoot / "tools" / "lint" / "allowlist.txt", findings);
  EXPECT_TRUE(findings.empty()) << dump(findings);
  EXPECT_TRUE(allow.allows("metric-name", "tests/obs_test.cc"));
  EXPECT_FALSE(allow.allows("nondet", "tests/obs_test.cc"));
  EXPECT_TRUE(allow.allows("getenv", "bench/env.h"));
  EXPECT_FALSE(allow.allows("getenv", "bench/harness.h"));
  EXPECT_TRUE(allow.allows("fault-name", "src/obs/names.h"));
  EXPECT_FALSE(allow.allows("fault-name", "src/faults/fault_plan.h"));
  EXPECT_TRUE(allow.allows("cluster-name", "src/obs/names.h"));
  EXPECT_FALSE(allow.allows("cluster-name", "src/cluster/cluster_sim.cc"));
  EXPECT_TRUE(allow.allows("perf-name", "src/obs/names.h"));
  EXPECT_FALSE(allow.allows("perf-name", "bench/perf_core.cc"));
}

// ----------------------------------------------------------------- doc sync --

TEST(DocSync, FixtureDriftIsReportedBothDirections) {
  NameTable t;
  t.metrics = {"queue.arrivals", "policy.wall_usec"};
  t.trace_events = {"queue.overload"};
  std::vector<Finding> findings;
  crosscheck_design(kFixtures / "design_fixture.md", "design_fixture.md", t, findings);
  EXPECT_TRUE(has(findings, "doc-sync", 0,
                  "\"policy.wall_usec\" is declared in src/obs/names.h but missing"))
      << dump(findings);
  EXPECT_TRUE(has(findings, "doc-sync", 0,
                  "\"queue.departures\" but src/obs/names.h does not declare it"))
      << dump(findings);
  EXPECT_EQ(findings.size(), 2u) << dump(findings);
}

TEST(DocSync, RealDesignDocMatchesRealNamesHeader) {
  std::vector<Finding> findings;
  crosscheck_design(kRepoRoot / "DESIGN.md", "DESIGN.md", real_table(), findings);
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(DocSync, MissingMarkerIsAFinding) {
  NameTable t;
  t.metrics = {"queue.arrivals"};
  std::vector<Finding> findings;
  // good.cc has no markdown markers at all.
  crosscheck_design(kFixtures / "good.cc", "good.cc", t, findings);
  EXPECT_TRUE(has(findings, "doc-sync", 0, "metric-table begin")) << dump(findings);
}

// ------------------------------------------------------------------ run() ----

TEST(Run, FixtureTreeProducesEveryRule) {
  Options opt;
  opt.root = kRepoRoot / "tools" / "lint";
  opt.dirs = {"fixtures"};
  opt.names_header = "../../src/obs/names.h";
  opt.allowlist_file = "no_such_allowlist.txt";
  opt.check_docs = false;
  const std::vector<Finding> findings = run(opt);
  ASSERT_FALSE(findings.empty());
  for (const char* rule :
       {"metric-name", "fault-name", "cluster-name", "perf-name", "node-fault-name",
        "failover-name", "unit-suffix", "nondet",
        "unsafe-parse", "getenv", "ns-header", "shared-mutable",
        "unordered-iter", "pointer-order", "tier-literal", "guarded-by",
        "stale-suppression"}) {
    EXPECT_TRUE(std::any_of(findings.begin(), findings.end(),
                            [&](const Finding& f) { return f.rule == rule; }))
        << "rule " << rule << " never fired:\n" << dump(findings);
  }
  for (const Finding& f : findings) {
    EXPECT_EQ(f.file.find("good.cc"), std::string::npos) << dump(findings);
    EXPECT_EQ(f.file.find("allowed.cc"), std::string::npos) << dump(findings);
    EXPECT_GT(f.line, 0);  // every source finding carries a line number
  }
}

TEST(Run, StaleAllowlistEntriesAreReported) {
  Options opt;
  opt.root = kRepoRoot / "tools" / "lint";
  opt.dirs = {"fixtures"};
  opt.names_header = "../../src/obs/names.h";
  opt.allowlist_file = "fixtures/stale_allowlist.txt";
  opt.check_docs = false;
  const std::vector<Finding> findings = run(opt);
  const bool stale_entry_reported =
      std::any_of(findings.begin(), findings.end(), [](const Finding& f) {
        return f.rule == "stale-suppression" &&
               f.file == "fixtures/stale_allowlist.txt" && f.line == 3 &&
               f.message.find("stale allowlist entry `nondet fixtures/good.cc`") !=
                   std::string::npos;
      });
  EXPECT_TRUE(stale_entry_reported) << dump(findings);
}

TEST(Run, RealTreeIsClean) {
  Options opt;
  opt.root = kRepoRoot;
  const std::vector<Finding> findings = run(opt);
  EXPECT_TRUE(findings.empty()) << dump(findings);
}

}  // namespace
}  // namespace mtat::lint
