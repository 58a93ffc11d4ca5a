// Package config is the core half of the coreconfig golden module:
// internal/config is in analysis.CorePackages, so the core-only checks run
// on it through the whole-program pipeline exactly as on internal/sim.
package config

// Schemes lists the names in map order.
func Schemes(byName map[string]int) []string {
	var out []string
	for name := range byName { // want `range over map\[string\]int: body appends to "out" in map order`
		out = append(out, name)
	}
	return out
}

// Weight sums the weights in map order.
func Weight(w map[string]float64) float64 {
	var total float64
	for _, v := range w { // want `body writes "total", declared outside the loop`
		total += v // want `order-sensitive float accumulation`
	}
	return total
}

// Load validates in the background.
func Load() {
	go func() {}() // want `go statement in the deterministic core`
}
