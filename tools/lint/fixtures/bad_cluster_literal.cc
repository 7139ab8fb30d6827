// Fixture: cluster.* names spelled as literals. The domain-name rule flags
// them anywhere on a line — a known name at a registry call site, a known
// name in a plain comparison (which metric-name would miss), and a typo'd
// cluster.* name that names.h has never heard of.
void bad(mtat::obs::MetricsRegistry& reg, const std::string& row) {
  reg.gauge("cluster.node_p99_ms").set(1.0);
  if (row == "cluster.slo_compliance_pct") return;
  reg.gauge("cluster.slo_complaince_pct").set(0.0);
}
