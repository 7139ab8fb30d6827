#include "lint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <ostream>
#include <regex>
#include <sstream>

#include "lexer.h"
#include "model.h"

namespace mtat::lint {

namespace {

// ------------------------------------------------------------- file reading --

bool read_file(const std::filesystem::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool is_header(const std::string& path) {
  return path.ends_with(".h") || path.ends_with(".hpp");
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}
bool is_punct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

bool in_set(const std::string& s, const std::set<std::string>& set) {
  return set.count(s) != 0;
}

}  // namespace

// --------------------------------------------------------------- unit suffix --

const char* bad_unit_suffix(const std::string& name) {
  static const std::map<std::string, const char*> kBad = {
      {"usec", "us"},         {"micros", "us"},       {"microsecs", "us"},
      {"microseconds", "us"}, {"msec", "ms"},         {"millis", "ms"},
      {"milliseconds", "ms"}, {"nsec", "ns"},         {"nanos", "ns"},
      {"nanoseconds", "ns"},  {"secs", "us"},         {"seconds", "us"},
      {"byte", "bytes"},      {"kb", "bytes"},        {"mb", "bytes"},
      {"gb", "bytes"},        {"kib", "bytes"},       {"mib", "bytes"},
      {"gib", "bytes"},       {"percent", "pct"},     {"percentage", "pct"},
      {"bps", "bytes_per_sec"}};
  // Examine the final _token of the last dot-component; a structural "_hist"
  // tail is transparent ("x.wall_usec_hist" is judged on "usec").
  const std::size_t dot = name.rfind('.');
  std::string last = dot == std::string::npos ? name : name.substr(dot + 1);
  std::vector<std::string> tokens;
  std::size_t start = 0;
  for (std::size_t p = 0; p <= last.size(); ++p) {
    if (p == last.size() || last[p] == '_') {
      tokens.push_back(last.substr(start, p - start));
      start = p + 1;
    }
  }
  if (tokens.empty()) return nullptr;
  std::string tail = tokens.back();
  if (tail == "hist" && tokens.size() >= 2) tail = tokens[tokens.size() - 2];
  const auto it = kBad.find(tail);
  return it == kBad.end() ? nullptr : it->second;
}

// ---------------------------------------------------------------- name table --

NameTable load_name_table(const std::filesystem::path& header, std::vector<Finding>& out) {
  NameTable table;
  std::string text;
  const std::string rel = header.generic_string();
  if (!read_file(header, text)) {
    out.push_back({rel, 0, "doc-sync", "cannot read names header " + rel});
    return table;
  }
  static const std::regex section_re(R"(mtat-lint:\s*section=([a-z-]+))");
  static const std::regex literal_re(R"re("([^"]*)")re");
  std::string section;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  bool pending = false;  // previous line was a `constexpr ... =` continuation
  while (std::getline(in, line)) {
    ++lineno;
    std::smatch m;
    if (std::regex_search(line, m, section_re)) {
      section = m[1];
      pending = false;
      continue;
    }
    const bool declares = line.find("constexpr") != std::string::npos;
    if (!std::regex_search(line, m, literal_re)) {
      // `constexpr const char* kVeryLongName =` with the literal wrapped to
      // the next line.
      const auto last = line.find_last_not_of(" \t\r");
      pending = declares && last != std::string::npos && line[last] == '=';
      continue;
    }
    if (!declares && !pending) continue;
    pending = false;
    const std::string name = m[1];
    if (section.empty() || section == "end") {
      out.push_back({rel, lineno, "doc-sync",
                     "name literal \"" + name + "\" outside a mtat-lint section marker"});
      continue;
    }
    std::set<std::string>* dest = nullptr;
    if (section == "metric") dest = &table.metrics;
    else if (section == "trace-event") dest = &table.trace_events;
    else if (section == "trace-category") dest = &table.categories;
    if (dest == nullptr) {
      out.push_back({rel, lineno, "doc-sync", "unknown mtat-lint section \"" + section + "\""});
      continue;
    }
    if (!dest->insert(name).second)
      out.push_back({rel, lineno, "doc-sync", "duplicate name \"" + name + "\""});
    if (section == "metric") {
      if (const char* canon = bad_unit_suffix(name))
        out.push_back({rel, lineno, "unit-suffix",
                       "metric name \"" + name + "\" uses a non-canonical unit suffix; use _" +
                           canon});
    }
  }
  return table;
}

// ----------------------------------------------------------------- allowlist --

Allowlist load_allowlist(const std::filesystem::path& file, std::vector<Finding>& out) {
  Allowlist allow;
  std::string text;
  if (!read_file(file, text)) return allow;  // optional file
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string rule, path;
    if (!(ls >> rule)) continue;  // blank line
    if (!(ls >> path)) {
      out.push_back({file.generic_string(), lineno, "doc-sync",
                     "allowlist entry needs `<rule> <path>`"});
      continue;
    }
    std::replace(path.begin(), path.end(), '\\', '/');
    allow.entries.push_back({lineno, rule, path});
    allow.files_by_rule[rule].insert(path);
  }
  return allow;
}

// --------------------------------------------------------------- lint_source --

namespace {

/// Rule engine for one lexed translation unit. Each check_* method walks the
/// token stream or the file model and calls report(), which applies the
/// suppression machinery (inline markers first, then the file allowlist) and
/// tracks which suppressions fired.
class SourceLinter {
 public:
  SourceLinter(const std::string& rel_path, const LexedFile& lexed, const FileModel& model,
               const NameTable& names, const Allowlist& allow, std::vector<Finding>& out,
               SuppressionUsage* usage)
      : rel_(rel_path),
        lexed_(lexed),
        model_(model),
        names_(names),
        allow_(allow),
        out_(out),
        usage_(usage) {}

  void run() {
    check_tokens();
    check_shared_mutable();
    check_unordered_iter();
    check_guarded_by();
    check_stale_inline();  // must run last: it needs the full usage picture
  }

 private:
  void report(int line, const std::string& rule, const std::string& msg) {
    const auto it = lexed_.allows.find(line);
    if (it != lexed_.allows.end() && it->second.count(rule) != 0) {
      inline_used_.insert({line, rule});
      return;
    }
    if (allow_.allows(rule, rel_)) {
      if (usage_ != nullptr) usage_->allowlist_entries.insert({rule, rel_});
      return;
    }
    out_.push_back({rel_, line, rule, msg});
  }

  const Token* tok(std::size_t i) const {
    return i < lexed_.tokens.size() ? &lexed_.tokens[i] : nullptr;
  }

  // -- token rules ----------------------------------------------------------

  void check_tokens() {
    const bool header = is_header(rel_);
    const std::vector<Token>& toks = lexed_.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind == Token::Kind::kString) {
        check_strict_domains(t);
        continue;
      }
      if (t.kind != Token::Kind::kIdent) continue;
      const Token* next = tok(i + 1);
      const bool call = next != nullptr && is_punct(*next, "(");

      check_banned_idents(t, call);
      if (header && t.text == "using" && next != nullptr && is_ident(*next, "namespace"))
        report(t.line, "ns-header",
               "`using namespace` in a header leaks into every includer; qualify names or "
               "move the directive into a .cc file");
      check_metric_call(i);
      check_pointer_order(i);
      check_unordered_begin(i);
      check_tier_literal(i);
    }
  }

  void check_banned_idents(const Token& t, bool call) {
    // Map an ident to its display spelling; call-style entries (value ends
    // in "()") only fire when the ident is followed by `(`.
    static const std::map<std::string, const char*> kNondet = {
        {"rand", "rand()"},
        {"srand", "srand()"},
        {"time", "time()"},
        {"clock", "clock()"},
        {"gettimeofday", "gettimeofday()"},
        {"random_device", "std::random_device"},
        {"system_clock", "std::chrono::system_clock"},
        {"localtime", "localtime"},
        {"gmtime", "gmtime"}};
    static const std::set<std::string> kAtoi = {"atoi", "atof", "atol", "atoll"};
    static const std::set<std::string> kSto = {"stoi", "stol",   "stoul", "stoll",
                                               "stoull", "stof", "stod",  "stold"};
    const auto nd = kNondet.find(t.text);
    if (nd != kNondet.end()) {
      const std::string what = nd->second;
      if (call || !what.ends_with("()"))
        report(t.line, "nondet",
               "nondeterminism source " + what +
                   ": use the seeded common/rng.h (randomness) or steady_clock (wall time)");
    }
    if (call && (in_set(t.text, kAtoi) || in_set(t.text, kSto)))
      report(t.line, "unsafe-parse",
             std::string("unchecked number parse ") +
                 (in_set(t.text, kAtoi) ? "atoi/atof family (errors collapse to 0)"
                                        : "std::sto* family (throws on bad input)") +
                 ": use common/parse.h or a checked strtol/strtoull pattern");
    if (call && t.text == "getenv")
      report(t.line, "getenv",
             "direct environment read std::getenv: MTAT_* knobs are parsed once by bench::Env "
             "(bench/env.h); read the parsed struct instead");
  }

  /// counter("x")/gauge/histogram/instant/complete, and WallSpan — the first
  /// argument must be an obs::names:: constant, never a literal. Token-based,
  /// so a literal that opens on the line after the `(` is caught too.
  void check_metric_call(std::size_t i) {
    static const std::set<std::string> kCalls = {"counter", "gauge", "histogram", "instant",
                                                 "complete"};
    const Token& t = lexed_.tokens[i];
    std::size_t open = i + 1;
    if (t.text == "WallSpan") {
      // `obs::WallSpan span(name, ...)` — skip the variable name if present.
      const Token* n = tok(open);
      if (n != nullptr && n->kind == Token::Kind::kIdent) ++open;
    } else if (!in_set(t.text, kCalls)) {
      return;
    }
    const Token* paren = tok(open);
    const Token* arg = tok(open + 1);
    if (paren == nullptr || !is_punct(*paren, "(") || arg == nullptr ||
        arg->kind != Token::Kind::kString)
      return;
    const std::string& name = arg->text;
    if (!names_.contains(name)) {
      report(arg->line, "metric-name",
             "unknown metric/trace name \"" + name +
                 "\": not declared in src/obs/names.h (declare it there and add it to the "
                 "DESIGN.md name table)");
    } else {
      report(arg->line, "metric-name",
             "metric/trace name literal \"" + name +
                 "\": use the obs::names:: constant from src/obs/names.h");
    }
    if (const char* canon = bad_unit_suffix(name))
      report(arg->line, "unit-suffix",
             "metric name \"" + name + "\" uses a non-canonical unit suffix; use _" + canon);
  }

  /// fault.* / cluster.* / perf.* literals are banned anywhere on any line —
  /// comparisons, map keys, and test expectations included. Those families
  /// are audited across tools (perf_diff, the placement policy, resilience
  /// claims), so the only blessed spelling is the obs::names:: constant.
  void check_strict_domains(const Token& t) {
    struct StrictDomain {
      const char* prefix;
      const char* rule;
      const char* what;
    };
    // Matching is first-wins, so sub-family rows precede their parents: a
    // failure-domain literal reports under its own rule, which lets the
    // allowlist bless names.h for the sub-family without widening the
    // parent-domain grant.
    static const StrictDomain kStrictDomains[] = {
        {"fault.node_", "node-fault-name", "node-fault-domain"},    // mtat-lint: allow(node-fault-name)
        {"fault.", "fault-name", "fault-domain"},        // mtat-lint: allow(fault-name)
        {"cluster.failover_", "failover-name", "failover-domain"},  // mtat-lint: allow(failover-name)
        {"cluster.", "cluster-name", "cluster-domain"},  // mtat-lint: allow(cluster-name)
        {"perf.", "perf-name", "perf-domain"},           // mtat-lint: allow(perf-name)
    };
    for (const StrictDomain& d : kStrictDomains) {
      if (t.text.rfind(d.prefix, 0) != 0) continue;
      if (names_.contains(t.text)) {
        report(t.line, d.rule,
               std::string(d.what) + " name literal \"" + t.text +
                   "\": use the obs::names:: constant from src/obs/names.h");
      } else {
        report(t.line, d.rule,
               std::string("unknown ") + d.what + " name \"" + t.text + "\": every " +
                   d.prefix +
                   "* metric/trace name must be declared in src/obs/names.h "
                   "and referenced via its obs::names:: constant");
      }
      return;
    }
  }

  /// std::map/std::set (or their unordered cousins) keyed by a pointer type,
  /// and pointer-to-integer types: both order or key by allocation address.
  void check_pointer_order(std::size_t i) {
    const Token& t = lexed_.tokens[i];
    if (t.text == "uintptr_t" || t.text == "intptr_t") {
      report(t.line, "pointer-order",
             "pointer-to-integer type " + t.text +
                 ": ordering, keying, or hashing by address is allocation-dependent and "
                 "differs run to run; derive a stable id instead");
      return;
    }
    static const std::set<std::string> kKeyed = {"map",           "set",
                                                 "multimap",      "multiset",
                                                 "unordered_map", "unordered_set"};
    if (!in_set(t.text, kKeyed)) return;
    const Token* open = tok(i + 1);
    if (open == nullptr || !is_punct(*open, "<")) return;
    // Walk the key type (up to the first top-level `,` or the closing `>`);
    // a `*` there means the container is keyed by pointer value.
    int depth = 1;
    for (std::size_t j = i + 2; j < lexed_.tokens.size() && j < i + 64; ++j) {
      const Token& u = lexed_.tokens[j];
      if (u.kind != Token::Kind::kPunct) continue;
      if (u.text == "<") ++depth;
      else if (u.text == ">") --depth;
      else if (u.text == ">>") depth -= 2;
      else if (u.text == "(") return;  // not a template-argument list after all
      if (depth <= 0) return;
      if (depth == 1 && u.text == ",") return;  // key type ended cleanly
      if (depth == 1 && u.text == "*") {
        report(t.line, "pointer-order",
               "container keyed by pointer value (std::" + t.text +
                   " with a pointer key): iteration and compare order follow allocation "
                   "addresses, which differ run to run; key by a stable id instead");
        return;
      }
    }
  }

  /// `x.begin()` on a name declared with an unordered container type: the
  /// iterator-loop spelling of unordered-iter (range-for is handled from the
  /// model).
  void check_unordered_begin(std::size_t i) {
    const Token& t = lexed_.tokens[i];
    if (model_.unordered_names.count(t.text) == 0) return;
    const Token* dot = tok(i + 1);
    const Token* method = tok(i + 2);
    if (dot == nullptr || method == nullptr) return;
    if (!is_punct(*dot, ".") && !is_punct(*dot, "->")) return;
    if (!is_ident(*method, "begin") && !is_ident(*method, "cbegin")) return;
    report(t.line, "unordered-iter",
           "iteration over unordered container '" + t.text +
               "': visit order is hash/bucket-dependent and can leak into results, metrics, "
               "or trace order; use std::map/std::set or drain into a sorted vector first");
  }

  /// Raw two-tier aliases `Tier::kFMem` / `Tier::kSMem` outside the memory
  /// substrate and the tests: code that names the two classic tiers directly
  /// silently stops generalizing to N-tier topologies. Spell the fast tier
  /// as kFastestTier, derive others with TierId arithmetic, or use the
  /// slower-aggregate telemetry queries.
  void check_tier_literal(std::size_t i) {
    if (rel_.rfind("src/mem/", 0) == 0 || rel_.rfind("tests/", 0) == 0) return;
    const Token& t = lexed_.tokens[i];
    if (t.text != "Tier") return;
    const Token* colons = tok(i + 1);
    const Token* member = tok(i + 2);
    if (colons == nullptr || member == nullptr || !is_punct(*colons, "::")) return;
    if (member->kind != Token::Kind::kIdent ||
        (member->text != "kFMem" && member->text != "kSMem"))
      return;
    report(member->line, "tier-literal",
           "two-tier literal Tier::" + member->text +
               " outside src/mem/ and tests/: use kFastestTier / TierId arithmetic (or the "
               "slower-aggregate PageHotness queries) so the code works on N-tier topologies");
  }

  // -- model rules ----------------------------------------------------------

  void check_shared_mutable() {
    for (const StateDecl& d : model_.state_decls) {
      if (d.is_const) continue;
      const char* where = "namespace scope";
      if (d.where == StateDecl::Where::kLocalStatic)
        where = d.is_thread_local ? "function-local thread_local" : "function-local static";
      else if (d.where == StateDecl::Where::kStaticMember)
        where = "static data member";
      report(d.line, "shared-mutable",
             "mutable shared state '" + d.name + "' (" + where +
                 "): shared across threads and calls, so writes are schedule-dependent; pass "
                 "the state through explicitly, or document single-owner initialization with "
                 "an inline suppression and an ownership note");
    }
  }

  void check_unordered_iter() {
    for (const RangeForStmt& rf : model_.range_fors) {
      for (const std::string& id : rf.range_idents) {
        if (model_.unordered_names.count(id) == 0) continue;
        report(rf.line, "unordered-iter",
               "iteration over unordered container '" + id +
                   "': visit order is hash/bucket-dependent and can leak into results, "
                   "metrics, or trace order; use std::map/std::set or drain into a sorted "
                   "vector first");
        break;
      }
    }
  }

  void check_guarded_by() {
    for (const ClassModel& c : model_.classes) {
      for (const MemberDecl& m : c.members) {
        if (!m.is_mutex || c.annotation_targets.count(m.name) != 0) continue;
        report(m.line, "guarded-by",
               "mutex member '" + m.name + "' of " + c.name +
                   " is not referenced by any thread-safety annotation; mark the state it "
                   "guards with GUARDED_BY(" + m.name + ") and lock-holding methods with "
                   "REQUIRES(" + m.name + ") (src/common/thread_annotations.h)");
      }
    }
  }

  // -- stale inline suppressions --------------------------------------------

  void check_stale_inline() {
    for (const auto& [line, rules] : lexed_.allows) {
      for (const std::string& r : rules) {
        if (r == "stale-suppression") continue;  // meta-markers never rot
        if (inline_used_.count({line, r}) != 0) continue;
        report(line, "stale-suppression",
               "stale suppression: no " + r +
                   " finding on this line is suppressed by `mtat-lint: allow(" + r +
                   ")`; remove the marker");
      }
    }
  }

  const std::string& rel_;
  const LexedFile& lexed_;
  const FileModel& model_;
  const NameTable& names_;
  const Allowlist& allow_;
  std::vector<Finding>& out_;
  SuppressionUsage* usage_;
  std::set<std::pair<int, std::string>> inline_used_;
};

}  // namespace

void lint_source(const std::string& rel_path, const std::string& contents,
                 const NameTable& names, const Allowlist& allow, std::vector<Finding>& out,
                 SuppressionUsage* usage) {
  const LexedFile lexed = lex(contents);
  const FileModel model = build_model(lexed);
  SourceLinter(rel_path, lexed, model, names, allow, out, usage).run();
}

// ------------------------------------------------------------------ doc sync --

namespace {

/// Backticked names from the first column of the marker-delimited table.
std::set<std::string> doc_table_names(const std::vector<std::string>& lines,
                                      const std::string& table, const std::string& doc_rel,
                                      std::vector<Finding>& out) {
  const std::string begin_marker = "<!-- mtat-lint: " + table + " begin -->";
  const std::string end_marker = "<!-- mtat-lint: " + table + " end -->";
  std::set<std::string> found;
  static const std::regex name_re(R"(`([a-z][a-z0-9_.]*)`)");
  bool inside = false, seen = false;
  for (const std::string& line : lines) {
    if (line.find(begin_marker) != std::string::npos) {
      inside = seen = true;
      continue;
    }
    if (line.find(end_marker) != std::string::npos) inside = false;
    if (!inside || line.empty() || line[0] != '|') continue;
    const std::size_t second_bar = line.find('|', 1);
    if (second_bar == std::string::npos) continue;
    const std::string first_cell = line.substr(0, second_bar);
    for (auto it = std::sregex_iterator(first_cell.begin(), first_cell.end(), name_re);
         it != std::sregex_iterator(); ++it)
      found.insert((*it)[1]);
  }
  if (!seen)
    out.push_back({doc_rel, 0, "doc-sync", "marker `" + begin_marker + "` not found"});
  return found;
}

}  // namespace

void crosscheck_design(const std::filesystem::path& design_doc, const std::string& doc_rel_path,
                       const NameTable& names, std::vector<Finding>& out) {
  std::string text;
  if (!read_file(design_doc, text)) {
    out.push_back({doc_rel_path, 0, "doc-sync", "cannot read " + doc_rel_path});
    return;
  }
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);

  const std::set<std::string> doc_metrics =
      doc_table_names(lines, "metric-table", doc_rel_path, out);
  const std::set<std::string> doc_traces =
      doc_table_names(lines, "trace-table", doc_rel_path, out);

  auto diff = [&](const std::set<std::string>& code, const std::set<std::string>& doc,
                  const char* kind) {
    for (const std::string& n : code)
      if (doc.count(n) == 0)
        out.push_back({doc_rel_path, 0, "doc-sync",
                       std::string(kind) + " \"" + n +
                           "\" is declared in src/obs/names.h but missing from the DESIGN.md " +
                           "table"});
    for (const std::string& n : doc)
      if (code.count(n) == 0)
        out.push_back({doc_rel_path, 0, "doc-sync",
                       std::string("DESIGN.md lists ") + kind + " \"" + n +
                           "\" but src/obs/names.h does not declare it"});
  };
  diff(names.metrics, doc_metrics, "metric");
  diff(names.trace_events, doc_traces, "trace event");
}

// ------------------------------------------------------------------ tree run --

std::vector<Finding> run(const Options& opt) {
  std::vector<Finding> out;
  const NameTable names = load_name_table(opt.root / opt.names_header, out);
  if (names.empty())
    out.push_back({opt.names_header, 0, "doc-sync",
                   "no names parsed from " + opt.names_header + " (missing section markers?)"});
  const Allowlist allow = load_allowlist(opt.root / opt.allowlist_file, out);

  SuppressionUsage usage;
  std::set<std::string> scanned;
  const std::set<std::string> exts = {".h", ".hpp", ".cc", ".cpp"};
  for (const std::string& dir : opt.dirs) {
    const std::filesystem::path base = opt.root / dir;
    if (!std::filesystem::exists(base)) continue;
    for (auto it = std::filesystem::recursive_directory_iterator(base);
         it != std::filesystem::recursive_directory_iterator(); ++it) {
      const std::filesystem::path& p = it->path();
      const std::string fname = p.filename().string();
      if (it->is_directory()) {
        // Lint fixtures are violations by design; build trees are generated.
        if (fname == "fixtures" || fname.rfind("build", 0) == 0 || fname.front() == '.')
          it.disable_recursion_pending();
        continue;
      }
      if (exts.count(p.extension().string()) == 0) continue;
      std::string contents;
      if (!read_file(p, contents)) continue;
      const std::string rel =
          std::filesystem::relative(p, opt.root).generic_string();
      scanned.insert(rel);
      lint_source(rel, contents, names, allow, out, &usage);
    }
  }

  // Stale allowlist entries: the file was scanned this run, yet no finding of
  // that rule needed the exemption. Entries for files outside the scanned
  // dirs are left alone (a scoped run must not declare them dead).
  for (const Allowlist::Entry& e : allow.entries) {
    if (e.rule == "stale-suppression") continue;
    if (scanned.count(e.path) == 0) continue;
    if (usage.allowlist_entries.count({e.rule, e.path}) != 0) continue;
    out.push_back({opt.allowlist_file, e.line, "stale-suppression",
                   "stale allowlist entry `" + e.rule + " " + e.path +
                       "`: the file was scanned and produced no " + e.rule +
                       " finding; remove the entry"});
  }

  if (opt.check_docs)
    crosscheck_design(opt.root / opt.design_doc, opt.design_doc, names, out);

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.message < b.message;
  });
  return out;
}

int run_and_report(const Options& opt, std::ostream& diag) {
  const std::vector<Finding> findings = run(opt);
  for (const Finding& f : findings)
    diag << f.file << ':' << f.line << ": [" << f.rule << "] " << f.message << '\n';
  if (findings.empty())
    diag << "mtat_lint: clean\n";
  else
    diag << "mtat_lint: " << findings.size() << " finding(s)\n";
  return static_cast<int>(findings.size());
}

}  // namespace mtat::lint
