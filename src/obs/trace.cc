#include "obs/trace.h"

#include <algorithm>

#include "obs/json.h"

namespace mtat::obs {

void TraceRecorder::enable(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  if (capacity != capacity_) {
    ring_.assign(capacity, TraceEvent{});
    capacity_ = capacity;
    written_ = 0;
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::clear() {
  written_ = 0;
}

void TraceRecorder::merge_from(const TraceRecorder& src, std::uint32_t track_offset) {
  if (capacity_ == 0) return;  // never enabled: nowhere to put the events
  for (TraceEvent e : src.snapshot()) {
    e.track += track_offset;
    push(e);
  }
  // Keep allocate_track() collision-free with the remapped range.
  next_track_ = std::max(next_track_, track_offset + src.next_track_);
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  const std::uint64_t w = written_.load(std::memory_order_relaxed);
  const std::uint64_t first = w > capacity_ ? w - capacity_ : 0;
  for (std::uint64_t i = first; i < w; ++i) out.push_back(ring_[i % capacity_]);
  return out;
}

namespace {

void write_event(std::ostream& os, const TraceEvent& e) {
  os << "{\"name\":";
  json_string(os, e.name != nullptr ? e.name : "?");
  os << ",\"cat\":";
  json_string(os, e.cat != nullptr ? e.cat : "sim");
  os << ",\"ph\":\"" << e.phase << "\"";
  // trace_event timestamps are microseconds; sim time is nanoseconds.
  os << ",\"ts\":";
  json_number(os, static_cast<double>(e.ts) / 1e3);
  if (e.phase == 'X') {
    os << ",\"dur\":";
    json_number(os, static_cast<double>(e.dur) / 1e3);
  }
  if (e.phase == 'i') os << ",\"s\":\"t\"";  // instant scope: thread
  os << ",\"pid\":1,\"tid\":" << e.track;
  if (e.arg1_name != nullptr || e.arg2_name != nullptr) {
    os << ",\"args\":{";
    bool first = true;
    if (e.arg1_name != nullptr) {
      json_string(os, e.arg1_name);
      os << ':';
      json_number(os, e.arg1);
      first = false;
    }
    if (e.arg2_name != nullptr) {
      if (!first) os << ',';
      json_string(os, e.arg2_name);
      os << ':';
      json_number(os, e.arg2);
    }
    os << '}';
  }
  os << '}';
}

}  // namespace

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  const std::uint64_t w = written_.load(std::memory_order_relaxed);
  const std::uint64_t first = w > capacity_ ? w - capacity_ : 0;
  for (std::uint64_t i = first; i < w; ++i) {
    if (i != first) os << ",\n";
    write_event(os, ring_[i % capacity_]);
  }
  os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":" << dropped()
     << "}}";
}

}  // namespace mtat::obs
