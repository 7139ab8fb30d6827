// Fixture: the same violations as the bad_* files, each suppressed by an
// inline `mtat-lint: allow(<rule>)` marker — must lint clean.
#include <cstdlib>

void allowed(mtat::obs::MetricsRegistry& reg, const std::string& row) {
  reg.counter("scratch.name").inc();          // mtat-lint: allow(metric-name)
  const int n = atoi("42");                   // mtat-lint: allow(unsafe-parse)
  (void)n;
  (void)rand();                               // mtat-lint: allow(nondet)
  static int reuse = 0;                       // mtat-lint: allow(shared-mutable)
  ++reuse;
  if (row == "fault.samples_dropped") return;  // mtat-lint: allow(domain-name)
}
