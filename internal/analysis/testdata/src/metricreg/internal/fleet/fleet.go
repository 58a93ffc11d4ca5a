// Package fleet is the consumer half of the metricreg golden module: it
// increments counters against the registry that lives in internal/service,
// which only a whole-program check can reconcile.
package fleet

import "metricreg/internal/service"

// report exercises the wildcard-prefix match.
func report(m *service.Metrics, source string) {
	m.Inc("fleet_results_"+source, 1)
}
