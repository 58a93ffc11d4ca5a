// Package experiment is the non-core half of the coreconfig golden module:
// the same constructs as internal/config, and no findings, because the
// core-only checks do not apply outside analysis.CorePackages.
package experiment

// Schemes lists the names in map order.
func Schemes(byName map[string]int) []string {
	var out []string
	for name := range byName {
		out = append(out, name)
	}
	return out
}

// Weight sums the weights in map order.
func Weight(w map[string]float64) float64 {
	var total float64
	for _, v := range w {
		total += v
	}
	return total
}

// Load validates in the background.
func Load() {
	go func() {}()
}
