// Typed event tracing with Chrome trace_event export.
//
// A TraceRecorder collects fixed-size typed events (migration slices,
// partition decisions, interval rollovers, RL updates, queue overload) into a
// preallocated ring buffer and exports them as Chrome trace_event JSON, the
// format chrome://tracing and Perfetto (ui.perfetto.dev) open directly.
//
// Cost model: tracing is compiled in but DEFAULT-OFF. Every record call first
// checks an atomic enabled flag (relaxed load — one predictable branch when
// disabled), so instrumentation can stay in hot paths permanently. When the
// ring fills, the oldest events are overwritten (Chrome's ring mode): a long
// run keeps its most recent window and reports how many events were dropped.
//
// Timestamps are *simulated* time. The simulation owns a nanosecond clock and
// publishes it via set_now() each tick, so components holding the recorder
// can stamp events without threading a clock through every call. Wall-clock costs (PP-M
// decide, SAC updates) are recorded as spans *placed* at the sim time they
// occurred whose *duration* is the measured wall time — the trace timeline
// stays in sim time while span widths show real compute cost (documented in
// DESIGN.md "Observability").
//
// Event names and categories must be string literals (or otherwise outlive
// the recorder): events store the pointers, never copies.
//
// Threading: the *record* calls (instant/complete/counter) are safe to issue
// concurrently — the enabled flag and the write cursor are atomic, so each
// recorder claims a distinct ring slot. Two writers can still collide on one
// slot if they are more than `capacity` claims apart (ring-mode overwrite
// semantics, mangling at most that slot, never memory safety). Everything
// else — enable/disable/clear/set_now/set_track/snapshot/write_chrome_json —
// is a control or export operation and must run while no recorder is active
// (quiescent), which the simulator's tick loop guarantees.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

#include "common/units.h"
#include "obs/metrics.h"

namespace mtat::obs {

struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  char phase = 'i';       ///< Chrome phase: 'X' complete, 'i' instant, 'C' counter
  SimTime ts = 0;         ///< sim time, ns
  Duration dur = 0;       ///< span length, ns ('X' only)
  std::uint32_t track = 0;  ///< rendered as Chrome tid (one track per sim)
  const char* arg1_name = nullptr;
  double arg1 = 0.0;
  const char* arg2_name = nullptr;
  double arg2 = 0.0;
};

class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// Allocate the ring (if needed) and start recording. Re-enabling with a
  /// different capacity reallocates; re-enabling with the same keeps events.
  void enable(std::size_t capacity = kDefaultCapacity);
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drop all recorded events (capacity and enabled state unchanged).
  void clear();

  /// Publish the current simulated time; subsequent events without an
  /// explicit timestamp are stamped with it.
  void set_now(SimTime t) { now_ = t; }
  SimTime now() const { return now_; }

  /// One track (Chrome tid) per simulation instance keeps interleaved runs
  /// inside one bench binary visually separate.
  std::uint32_t allocate_track() { return next_track_++; }
  void set_track(std::uint32_t t) { track_ = t; }
  std::uint32_t track() const { return track_; }
  /// The next track allocate_track() would hand out — the offset a caller
  /// merging another recorder's events needs to keep track ids distinct.
  std::uint32_t next_track() const { return next_track_; }

  /// Append `src`'s surviving events (oldest first) with their track ids
  /// shifted by `track_offset`, and advance this recorder's track allocator
  /// past the remapped range. Control operation: both recorders must be
  /// quiescent. Used by experiments::ParallelRunner to fold per-spec rings
  /// back into the parent context's timeline in deterministic spec order.
  /// No-op when this recorder has never been enabled (no ring).
  void merge_from(const TraceRecorder& src, std::uint32_t track_offset);

  /// Point event at the current sim time.
  void instant(const char* name, const char* cat, const char* k1 = nullptr, double v1 = 0.0,
               const char* k2 = nullptr, double v2 = 0.0) {
    if (!enabled()) return;
    push(TraceEvent{name, cat, 'i', now_, 0, track_, k1, v1, k2, v2});
  }

  /// Complete span [ts, ts+dur] in sim time.
  void complete(const char* name, const char* cat, SimTime ts, Duration dur,
                const char* k1 = nullptr, double v1 = 0.0, const char* k2 = nullptr,
                double v2 = 0.0) {
    if (!enabled()) return;
    push(TraceEvent{name, cat, 'X', ts, dur, track_, k1, v1, k2, v2});
  }

  /// Chrome counter sample (rendered as a stacked chart named `name`).
  void counter(const char* name, const char* cat, const char* key, double value) {
    if (!enabled()) return;
    push(TraceEvent{name, cat, 'C', now_, 0, track_, key, value, nullptr, 0.0});
  }

  std::size_t size() const {
    const std::uint64_t w = written_.load(std::memory_order_relaxed);
    return w < capacity_ ? w : capacity_;
  }
  std::size_t capacity() const { return capacity_; }
  /// Events overwritten because the ring was full.
  std::uint64_t dropped() const {
    const std::uint64_t w = written_.load(std::memory_order_relaxed);
    return w > capacity_ ? w - capacity_ : 0;
  }

  /// Events in chronological (insertion) order, oldest surviving first.
  std::vector<TraceEvent> snapshot() const;

  /// {"traceEvents":[...],"displayTimeUnit":"ms",...} — openable in
  /// chrome://tracing and Perfetto. Timestamps are emitted in microseconds
  /// (the trace_event unit).
  void write_chrome_json(std::ostream& os) const;

 private:
  void push(const TraceEvent& e) {
    if (capacity_ == 0) return;
    // Claim a slot first, then fill it: concurrent recorders get distinct
    // slots (relaxed is enough — no recorder reads another's slot, and the
    // exporters only run quiescent).
    const std::uint64_t slot = written_.fetch_add(1, std::memory_order_relaxed);
    ring_[slot % capacity_] = e;
  }

  std::atomic<bool> enabled_{false};
  std::vector<TraceEvent> ring_;
  std::size_t capacity_ = 0;
  std::atomic<std::uint64_t> written_{0};
  SimTime now_ = 0;
  std::uint32_t track_ = 0;
  std::uint32_t next_track_ = 1;
};

/// RAII wall-clock span: measures the wall time between construction and
/// destruction, records it into optional always-on metrics (a Counter sum of
/// microseconds and/or a Histogram of microsecond samples), and — when a
/// recorder is supplied and enabled — emits a complete event placed at the
/// recorder's current sim time with the wall duration (see the header
/// comment on timestamp domains). A null recorder means metrics only.
class WallSpan {
 public:
  WallSpan(TraceRecorder* trace, const char* name, const char* cat,
           Counter* wall_us_sum = nullptr, Histogram* wall_us_hist = nullptr)
      : trace_(trace), name_(name), cat_(cat), sum_(wall_us_sum), hist_(wall_us_hist),
        t0_(std::chrono::steady_clock::now()) {}

  WallSpan(const WallSpan&) = delete;
  WallSpan& operator=(const WallSpan&) = delete;

  ~WallSpan() {
    const double us = elapsed_us();
    if (sum_ != nullptr) sum_->inc(us);
    if (hist_ != nullptr) hist_->record(static_cast<std::uint64_t>(us));
    if (trace_ != nullptr)
      trace_->complete(name_, cat_, trace_->now(),
                       static_cast<Duration>(us * 1e3), "wall_us", us);
  }

  double elapsed_us() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0_)
        .count();
  }

 private:
  TraceRecorder* trace_;
  const char* name_;
  const char* cat_;
  Counter* sum_;
  Histogram* hist_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace mtat::obs
