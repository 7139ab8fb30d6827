// Fixture: cluster.failover_* names spelled as literals. The sub-family has
// no rule of its own: domain-name owns all of cluster.* and flags them once
// each, anywhere on a line — a known name at a registry call site, a known
// name in a plain comparison, and a typo'd cluster.failover_* name.
void bad(mtat::obs::MetricsRegistry& reg, const std::string& row) {
  reg.counter("cluster.failover_evacuations").inc();
  if (row == "cluster.failover_suspected_nodes") return;
  reg.counter("cluster.failover_evacutions").inc();
}
