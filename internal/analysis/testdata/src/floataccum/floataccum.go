// Golden input for the floataccum check: positive and negative cases.
package floataccum

// Positive: += on a float under map iteration rounds differently per
// iteration order.
func sums(m map[int]float64) float64 {
	var total float64
	for _, v := range m { // (maporder also fires here; this package tests floataccum alone)
		total += v // want `order-sensitive float accumulation under range-over-map`
	}
	return total
}

// Positive: the spelled-out self-assignment form.
func selfAssign(m map[int]float64) float64 {
	var total float64
	for _, v := range m {
		total = total + v // want `order-sensitive float accumulation \(x = x ± \.\.\.\) under range-over-map`
	}
	return total
}

// Positive: accumulating into an indexed cell of an outer slice.
func binned(m map[int]float64, bins []float64) {
	for k, v := range m {
		bins[k%len(bins)] += v // want `order-sensitive float accumulation under range-over-map`
	}
}

// Negative: integer accumulation is exact and commutative (maporder's
// business, not floataccum's).
func ints(m map[int]int) int {
	var total int
	for _, v := range m {
		total += v
	}
	return total
}

// Negative: slice iteration order is fixed.
func overSlice(xs []float64) float64 {
	var total float64
	for _, v := range xs {
		total += v
	}
	return total
}

// Negative: a per-iteration temporary cannot observe iteration order.
func loopLocal(m map[int][]float64) {
	for _, vs := range m {
		var rowSum float64
		for _, v := range vs {
			rowSum += v
		}
		_ = rowSum
	}
}
