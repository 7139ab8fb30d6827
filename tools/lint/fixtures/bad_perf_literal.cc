// Fixture: perf.* names spelled as literals. The domain-name rule flags
// them anywhere on a line — a known name at a registry call site, a known
// name in a plain comparison (which metric-name would miss), and a typo'd
// perf.* name that names.h has never heard of.
void bad(mtat::obs::MetricsRegistry& reg, const std::string& key) {
  reg.gauge("perf.sim_steps_per_sec").set(1.0);
  if (key == "perf.hotness_record_age_per_sec") return;
  reg.gauge("perf.hotness_recordage_per_sec").set(0.0);
}
