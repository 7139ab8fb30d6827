#include "perf_diff.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <set>
#include <stdexcept>

#include "obs/json_parse.h"

namespace mtat::perf_diff {
namespace {

[[noreturn]] void schema_error(const std::string& origin, const std::string& what) {
  throw std::runtime_error(origin + ": " + what);
}

Entry parse_entry(const obs::JsonValue& v, const std::string& origin, std::size_t index) {
  const std::string where = origin + ": entries[" + std::to_string(index) + "]";
  if (!v.is_object()) schema_error(where, "must be an object");
  Entry e;
  const obs::JsonValue* label = v.find("label");
  if (label == nullptr || !label->is_string() || label->str.empty())
    schema_error(where, "requires a non-empty string \"label\"");
  e.label = label->str;
  const obs::JsonValue* scale = v.find("scale");
  if (scale == nullptr || !scale->is_string())
    schema_error(where, "requires a string \"scale\"");
  e.scale = scale->str;
  const obs::JsonValue* metrics = v.find("metrics");
  if (metrics == nullptr || !metrics->is_object())
    schema_error(where, "requires an object \"metrics\"");
  if (metrics->object.empty()) schema_error(where, "\"metrics\" must not be empty");
  for (const auto& [name, val] : metrics->object) {
    if (!val.is_number())
      schema_error(where, "metric \"" + name + "\" must be a number");
    if (!std::isfinite(val.number) || val.number < 0.0)
      schema_error(where, "metric \"" + name + "\" must be finite and non-negative");
    e.metrics.emplace_back(name, val.number);
  }
  return e;
}

}  // namespace

BenchFile load_bench_file(const std::string& path) {
  obs::JsonValue doc;
  try {
    doc = obs::json_parse_file(path);
  } catch (const obs::JsonParseError& e) {
    throw std::runtime_error(e.what());
  }
  if (!doc.is_object()) schema_error(path, "top level must be an object");
  BenchFile out;
  const obs::JsonValue* bench = doc.find("bench");
  if (bench == nullptr || !bench->is_string() || bench->str.empty())
    schema_error(path, "requires a non-empty string \"bench\"");
  out.bench = bench->str;
  const obs::JsonValue* entries = doc.find("entries");
  if (entries == nullptr || !entries->is_array())
    schema_error(path, "requires an array \"entries\"");
  for (std::size_t i = 0; i < entries->array.size(); ++i)
    out.entries.push_back(parse_entry(entries->array[i], path, i));
  return out;
}

double Delta::ratio() const {
  if (before <= 0.0)
    return after <= 0.0 ? 1.0 : std::numeric_limits<double>::infinity();
  return after / before;
}

bool Comparison::any_regression(double threshold) const {
  for (const Delta& d : deltas)
    if (d.regressed(threshold)) return true;
  return false;
}

Comparison compare(const Entry& before, const Entry& after) {
  if (before.scale != after.scale)
    throw std::runtime_error("scales differ: \"" + before.label + "\" was measured at scale \"" +
                             before.scale + "\" and \"" + after.label + "\" at scale \"" +
                             after.scale + "\"; only same-scale entries are comparable");
  std::set<std::string> before_keys, after_keys;
  for (const auto& [k, v] : before.metrics) before_keys.insert(k);
  for (const auto& [k, v] : after.metrics) after_keys.insert(k);
  std::string mismatch;
  for (const std::string& k : before_keys)
    if (after_keys.count(k) == 0)
      mismatch += " metric \"" + k + "\" present in \"" + before.label +
                  "\" but missing from \"" + after.label + "\";";
  for (const std::string& k : after_keys)
    if (before_keys.count(k) == 0)
      mismatch += " metric \"" + k + "\" present in \"" + after.label +
                  "\" but missing from \"" + before.label + "\";";
  if (!mismatch.empty())
    throw std::runtime_error("metric key sets differ:" + mismatch +
                             " entries must carry identical metric keys");
  Comparison c;
  c.before_label = before.label;
  c.after_label = after.label;
  c.scale = after.scale;
  for (const auto& [name, before_v] : before.metrics) {
    Delta d;
    d.metric = name;
    d.before = before_v;
    for (const auto& [k, after_v] : after.metrics)
      if (k == name) d.after = after_v;
    c.deltas.push_back(std::move(d));
  }
  return c;
}

std::vector<TrajectoryStep> trajectory_steps(const BenchFile& f) {
  std::vector<TrajectoryStep> steps;
  for (std::size_t i = 0; i < f.entries.size(); ++i) {
    const Entry* before = nullptr;
    for (std::size_t j = i; j-- > 0;)
      if (f.entries[j].scale == f.entries[i].scale) {
        before = &f.entries[j];
        break;
      }
    steps.push_back({before, &f.entries[i]});
  }
  return steps;
}

void print_report(std::ostream& os, const Comparison& c, double threshold) {
  os << "perf_diff: \"" << c.before_label << "\" -> \"" << c.after_label << "\" at scale \""
     << c.scale << "\" (regression threshold " << threshold * 100.0 << "%)\n";
  bool any = false;
  for (const Delta& d : c.deltas) {
    const bool bad = d.regressed(threshold);
    any = any || bad;
    char line[256];
    std::snprintf(line, sizeof(line), "  %-36s %14.4g %14.4g %9.2fx%s\n", d.metric.c_str(),
                  d.before, d.after, d.ratio(), bad ? "  REGRESSED" : "");
    os << line;
  }
  os << (any ? "verdict: REGRESSION\n" : "verdict: ok\n");
}

}  // namespace mtat::perf_diff
