#include "faults/fault_plan.h"

#include <algorithm>
#include <stdexcept>

#include "common/parse.h"

namespace mtat::faults {

void normalize_windows(std::vector<FaultWindow>& windows) {
  for (const FaultWindow& w : windows) {
    // SimTime/Duration are unsigned, so negative fields are unrepresentable;
    // the one malformed shape a spec can express is the inverted periodic.
    if (w.period > 0 && w.length > w.period)
      throw std::invalid_argument(
          "FaultWindow: inverted periodic window (length exceeds period, so "
          "the window would never close)");
  }
  std::erase_if(windows, [](const FaultWindow& w) { return w.length == 0; });
  std::sort(windows.begin(), windows.end(),
            [](const FaultWindow& a, const FaultWindow& b) {
              if (a.period != b.period) return a.period < b.period;
              if (a.start != b.start) return a.start < b.start;
              return a.length < b.length;
            });
  std::vector<FaultWindow> merged;
  for (const FaultWindow& w : windows) {
    if (!merged.empty() && merged.back().period == w.period &&
        w.start <= merged.back().start + merged.back().length) {
      FaultWindow& prev = merged.back();
      prev.length = std::max(prev.length, w.start + w.length - prev.start);
      // Two valid overlapping windows of the same period can legitimately
      // cover the whole cycle; clamp rather than re-reject.
      if (prev.period > 0) prev.length = std::min(prev.length, prev.period);
    } else {
      merged.push_back(w);
    }
  }
  windows = std::move(merged);
}

bool FaultPlan::any() const {
  return sample_loss_prob > 0.0 || sample_corruption_prob > 0.0 ||
         migration_failure_prob > 0.0 || rl_nan_action_prob > 0.0 ||
         rl_divergent_action_prob > 0.0 || !telemetry_blackouts.empty() ||
         !migration_failure_bursts.empty() || !bandwidth_collapses.empty() ||
         !smem_latency_spikes.empty();
}

FaultPlan FaultPlan::storm(double intensity) {
  if (!(intensity >= 0.0 && intensity <= 1.0))
    throw std::invalid_argument("FaultPlan::storm: intensity must be in [0, 1]");
  FaultPlan p;
  if (intensity == 0.0) return p;  // empty plan: injector attached, nothing injected

  // Probabilistic background faults, linear in intensity.
  p.sample_loss_prob = 0.20 * intensity;
  p.sample_corruption_prob = 0.05 * intensity;
  p.migration_failure_prob = 0.25 * intensity;
  p.rl_nan_action_prob = 0.02 * intensity;
  p.rl_divergent_action_prob = 0.05 * intensity;

  // Scheduled windows on a shared 30 s cycle, staggered so each fault class
  // also gets exercised in isolation. Periodic (rather than one-shot at
  // absolute times) so they hit training, settling, and measurement phases
  // alike at every scale preset.
  const Duration cycle = seconds(30);
  p.migration_failure_bursts = {{seconds(10), seconds(5), cycle}};
  p.burst_failure_prob = intensity;  // 1.0 -> total migration outage
  p.telemetry_blackouts = {{seconds(17), seconds(4), cycle}};
  p.bandwidth_collapses = {{seconds(4), seconds(3), cycle}};
  p.bandwidth_collapse_factor = 1.0 - 0.9 * intensity;
  p.smem_latency_spikes = {{seconds(24), seconds(4), cycle}};
  p.smem_spike_factor = 1.0 + 3.0 * intensity;
  return p;
}

FaultPlan FaultPlan::normalized() const {
  FaultPlan p = *this;
  normalize_windows(p.telemetry_blackouts);
  normalize_windows(p.migration_failure_bursts);
  normalize_windows(p.bandwidth_collapses);
  normalize_windows(p.smem_latency_spikes);
  return p;
}

std::optional<FaultPlan> FaultPlan::from_spec(const std::string& spec) {
  std::string preset = spec;
  double intensity = 1.0;
  if (const std::size_t colon = spec.find(':'); colon != std::string::npos) {
    preset = spec.substr(0, colon);
    const auto v = parse_double(spec.substr(colon + 1));
    if (!v || !(*v >= 0.0 && *v <= 1.0)) return std::nullopt;
    intensity = *v;
  }
  if (preset == "storm") return storm(intensity);
  return std::nullopt;
}

}  // namespace mtat::faults
