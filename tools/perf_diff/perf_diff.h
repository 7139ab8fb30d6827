// perf_diff — the BENCH_*.json regression gate (see DESIGN.md §14).
//
// bench/perf_core (and any future perf_* lane) appends one entry per run to
// a BENCH_*.json trajectory file: a label, the scale preset, and a flat map
// of ops/s series. This library compares entries and decides "regression or
// not", and the CLI wraps it for tools/check.sh and CI:
//
//  * every metric is higher-is-better ops/s — an entry B regresses from A on
//    metric m when B[m] < A[m] * (1 - threshold);
//  * the two entries must carry exactly the same metric keys. A missing or
//    extra key is an error, not a skip: a renamed series would otherwise
//    drop silently out of the gate;
//  * the two entries must share a scale preset: rates measured on different
//    input sizes are not comparable, so pairing them is an error too. Within
//    one trajectory each entry is gated against the nearest earlier entry at
//    its own scale;
//  * malformed JSON, schema violations, and unreadable files all throw — the
//    CLI maps them to exit code 2, distinct from exit 1 (regression), so a
//    broken gate can never pass for a clean one.
//
// Built as a small library so tests/perf_diff_test.cc drives the rules
// directly (the tools/lint pattern), plus the CLI binary.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace mtat::perf_diff {

/// One run's worth of a BENCH trajectory: `{"label": ..., "scale": ...,
/// "metrics": {name: ops_per_sec, ...}}`. Metric order is document order.
struct Entry {
  std::string label;
  std::string scale;
  std::vector<std::pair<std::string, double>> metrics;
};

/// A parsed BENCH_*.json: `{"bench": ..., "entries": [Entry, ...]}`.
struct BenchFile {
  std::string bench;
  std::vector<Entry> entries;
};

/// Parse and validate a BENCH trajectory file. Throws std::runtime_error
/// (naming the path and the violated requirement) on unreadable input,
/// malformed JSON, or schema violations — including non-finite or negative
/// metric values and an entry with no metrics at all.
BenchFile load_bench_file(const std::string& path);

/// One metric's before/after pair.
struct Delta {
  std::string metric;
  double before = 0.0;
  double after = 0.0;

  /// after/before speedup; an improvement reads > 1. Defined as +inf when
  /// before is zero and after is not.
  double ratio() const;

  /// Higher-is-better: regressed iff after < before * (1 - threshold).
  bool regressed(double threshold) const { return after < before * (1.0 - threshold); }
};

struct Comparison {
  std::string before_label;
  std::string after_label;
  std::string scale;
  std::vector<Delta> deltas;  ///< in `before`'s metric order

  bool any_regression(double threshold) const;
};

/// Pair up the two entries' metrics. Throws std::runtime_error when the
/// entries' scales differ, or when the key sets differ (reporting every
/// missing/extra key by name).
Comparison compare(const Entry& before, const Entry& after);

/// One entry of a trajectory and the entry it is gated against: the nearest
/// earlier entry at the same scale, or null when no earlier entry has it.
struct TrajectoryStep {
  const Entry* before;
  const Entry* after;
};

/// Every entry of `f`, in order, with its gate partner (see TrajectoryStep).
/// The pointers point into `f`.
std::vector<TrajectoryStep> trajectory_steps(const BenchFile& f);

/// Human-readable table: one line per metric with before/after/speedup and a
/// REGRESSED marker past the threshold, plus a verdict line.
void print_report(std::ostream& os, const Comparison& c, double threshold);

}  // namespace mtat::perf_diff
