// Package cache provides a generic set-associative container with true-LRU
// replacement. It is the storage substrate for every cache-like structure in
// the system: L1/L2 TLBs, the page-walk cache, the L1/L2 data caches, and
// the IDYLL-InMem VM-Cache. It models capacity and replacement only; timing
// belongs to the components that embed it.
package cache

// SetAssoc is a set-associative cache mapping keys of type K to values of
// type V. The zero value is not usable; construct with New.
type SetAssoc[K comparable, V any] struct {
	sets  int
	ways  int
	index func(K) uint64
	lines [][]line[K, V] // [set][way], ordered MRU-first
	size  int
}

type line[K comparable, V any] struct {
	key K
	val V
}

// New builds a cache with the given geometry. index maps a key to a set
// (reduced modulo sets); a nil index uses the identity for integer-like
// hashing via the provided function — callers must supply one for non-integer
// keys.
func New[K comparable, V any](sets, ways int, index func(K) uint64) *SetAssoc[K, V] {
	if sets <= 0 || ways <= 0 {
		panic("cache: non-positive geometry")
	}
	if index == nil {
		panic("cache: nil index function")
	}
	return &SetAssoc[K, V]{
		sets:  sets,
		ways:  ways,
		index: index,
		lines: make([][]line[K, V], sets),
	}
}

// Sets reports the number of sets.
func (c *SetAssoc[K, V]) Sets() int { return c.sets }

// Ways reports the associativity.
func (c *SetAssoc[K, V]) Ways() int { return c.ways }

// Len reports the number of resident entries.
func (c *SetAssoc[K, V]) Len() int { return c.size }

// Capacity reports sets × ways.
func (c *SetAssoc[K, V]) Capacity() int { return c.sets * c.ways }

func (c *SetAssoc[K, V]) set(key K) int {
	return int(c.index(key) % uint64(c.sets))
}

// Lookup finds key, promoting it to MRU on hit.
func (c *SetAssoc[K, V]) Lookup(key K) (V, bool) {
	s := c.set(key)
	ln := c.lines[s]
	for i := range ln {
		if ln[i].key == key {
			hit := ln[i]
			copy(ln[1:i+1], ln[:i])
			ln[0] = hit
			return hit.val, true
		}
	}
	var zero V
	return zero, false
}

// Peek finds key without touching LRU state.
func (c *SetAssoc[K, V]) Peek(key K) (V, bool) {
	ln := c.lines[c.set(key)]
	for i := range ln {
		if ln[i].key == key {
			return ln[i].val, true
		}
	}
	var zero V
	return zero, false
}

// Insert adds or updates key→val as the MRU line of its set, evicting the
// LRU line if the set is full. It returns the evicted pair, if any.
func (c *SetAssoc[K, V]) Insert(key K, val V) (evictedKey K, evictedVal V, evicted bool) {
	s := c.set(key)
	ln := c.lines[s]
	for i := range ln {
		if ln[i].key == key {
			copy(ln[1:i+1], ln[:i])
			ln[0] = line[K, V]{key: key, val: val}
			return
		}
	}
	if len(ln) >= c.ways {
		victim := ln[len(ln)-1]
		copy(ln[1:], ln[:len(ln)-1])
		ln[0] = line[K, V]{key: key, val: val}
		return victim.key, victim.val, true
	}
	// Grow in place: sets are allocated at full associativity on first use,
	// so the steady-state insert path never allocates.
	if ln == nil {
		ln = make([]line[K, V], 0, c.ways)
	}
	ln = append(ln, line[K, V]{})
	copy(ln[1:], ln[:len(ln)-1])
	ln[0] = line[K, V]{key: key, val: val}
	c.lines[s] = ln
	c.size++
	return
}

// Invalidate removes key and reports whether it was resident.
func (c *SetAssoc[K, V]) Invalidate(key K) bool {
	s := c.set(key)
	ln := c.lines[s]
	for i := range ln {
		if ln[i].key == key {
			c.lines[s] = append(ln[:i], ln[i+1:]...)
			c.size--
			return true
		}
	}
	return false
}

// InvalidateRange removes every entry of c whose key lies in [lo, hi] and
// reports how many were removed — the page-granular flush of a
// cacheline-keyed cache. It visits only the sets the range's keys index to:
// at most hi-lo+1 sets, falling back to one sweep of every set when the range
// is at least as wide as the set count. Surviving lines keep their per-set
// recency order. It is a function rather than a method because it needs
// ordered keys, which SetAssoc's comparable K does not promise.
func InvalidateRange[V any](c *SetAssoc[uint64, V], lo, hi uint64) int {
	removed := 0
	if hi-lo >= uint64(c.sets-1) {
		for s := range c.lines {
			removed += dropRange(c, s, lo, hi)
		}
	} else {
		// Two keys of the range may share a set under a non-identity
		// index; the second visit then finds nothing left to remove.
		for i := uint64(0); i <= hi-lo; i++ {
			removed += dropRange(c, c.set(lo+i), lo, hi)
		}
	}
	c.size -= removed
	return removed
}

// dropRange removes set s's lines with keys in [lo, hi], keeping the order of
// the rest, and reports how many it removed. It does not adjust c.size.
func dropRange[V any](c *SetAssoc[uint64, V], s int, lo, hi uint64) int {
	ln := c.lines[s]
	i := 0
	for i < len(ln) && (ln[i].key < lo || ln[i].key > hi) {
		i++
	}
	if i == len(ln) {
		return 0 // the common case: read-only
	}
	kept := ln[:i]
	for _, l := range ln[i+1:] {
		if l.key < lo || l.key > hi {
			kept = append(kept, l)
		}
	}
	c.lines[s] = kept
	return len(ln) - len(kept)
}

// Flush removes every entry, keeping each set's storage for reuse. It
// clears each set's whole capacity, including the stale copies Invalidate
// leaves past a set's end, so a flushed cache references nothing and
// behaves exactly as a new one of its geometry.
func (c *SetAssoc[K, V]) Flush() {
	for s := range c.lines {
		ln := c.lines[s][:0]
		clear(ln[:cap(ln)])
		c.lines[s] = ln
	}
	c.size = 0
}

// Range calls fn for every resident entry until fn returns false.
func (c *SetAssoc[K, V]) Range(fn func(K, V) bool) {
	for s := range c.lines {
		for i := range c.lines[s] {
			if !fn(c.lines[s][i].key, c.lines[s][i].val) {
				return
			}
		}
	}
}
