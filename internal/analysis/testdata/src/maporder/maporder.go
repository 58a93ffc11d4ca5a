// Golden input for the maporder check: positive and negative cases.
package maporder

import "sort"

// Positive: appending in map order leaks the hash seed into the slice.
func appendsUnsorted(m map[int]string) []string {
	var out []string
	for _, v := range m { // want `body appends to "out" in map order`
		out = append(out, v)
	}
	return out
}

// Positive: writing state declared outside the loop in map order.
func writesOuter(m map[int]int) int {
	total := 0
	for _, v := range m { // want `body writes "total", declared outside the loop, in map order`
		total += v
	}
	return total
}

// Positive: scheduling events in map order.
type engine struct{}

func (engine) Schedule(delay uint64, fn func()) {}

func schedules(e engine, m map[int]func()) {
	for _, fn := range m { // want `body schedules events in map order`
		e.Schedule(1, fn)
	}
}

// Positive: invoking a function value exposes iteration order to the
// callee.
func invokes(m map[int]func()) {
	for _, fn := range m { // want `body invokes function value "fn" in map order`
		fn()
	}
}

// Positive: returning a key-derived value picks an arbitrary element.
func arbitrary(m map[int]int) int {
	for k := range m { // want `body returns a value derived from the iteration variables`
		return k
	}
	return -1
}

// Negative: the canonical collect-keys-then-sort idiom.
func sortedKeyCollection(m map[int]string) []string {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// Negative: loop-local work and deleting from the ranged map are safe.
func locals(m map[int][]int) {
	for k, vs := range m {
		n := 0
		n += len(vs)
		if n == 0 {
			delete(m, k)
		}
	}
}
