// Fixture: fault.node_* names spelled as literals. The sub-family has no rule
// of its own: domain-name owns all of fault.* and flags them once each,
// anywhere on a line — a known name at a registry call site, a known name in
// a plain comparison, and a typo'd fault.node_* name.
void bad(mtat::obs::MetricsRegistry& reg, const std::string& row) {
  reg.counter("fault.node_crashes").inc();
  if (row == "fault.node_stragglers") return;
  reg.counter("fault.node_crahses").inc();
}
