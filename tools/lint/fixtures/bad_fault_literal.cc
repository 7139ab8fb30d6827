// Fixture: fault.* names spelled as literals. The domain-name rule flags
// them anywhere on a line — a known name at a registry call site, a known
// name in a plain comparison (which metric-name would miss), and a typo'd
// fault.* name that names.h has never heard of.
void bad(mtat::obs::MetricsRegistry& reg, const std::string& row) {
  reg.counter("fault.samples_dropped").inc();
  if (row == "fault.migration_failures") return;
  reg.counter("fault.sample_drops").inc();
}
