package cache

import (
	"testing"
	"testing/quick"
)

func ident(k uint64) uint64 { return k }

func newTest(sets, ways int) *SetAssoc[uint64, int] {
	return New[uint64, int](sets, ways, ident)
}

func TestInsertLookup(t *testing.T) {
	c := newTest(4, 2)
	c.Insert(10, 100)
	v, ok := c.Lookup(10)
	if !ok || v != 100 {
		t.Fatalf("Lookup(10) = %d,%v", v, ok)
	}
	if _, ok := c.Lookup(11); ok {
		t.Fatal("phantom hit")
	}
}

func TestInsertUpdatesExisting(t *testing.T) {
	c := newTest(1, 2)
	c.Insert(1, 10)
	c.Insert(1, 20)
	if c.Len() != 1 {
		t.Fatalf("duplicate key grew cache to %d", c.Len())
	}
	if v, _ := c.Lookup(1); v != 20 {
		t.Fatalf("update lost: %d", v)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newTest(1, 2)
	c.Insert(1, 1)
	c.Insert(2, 2)
	c.Lookup(1) // 1 becomes MRU; 2 is LRU
	ek, _, ev := c.Insert(3, 3)
	if !ev || ek != 2 {
		t.Fatalf("evicted %d,%v; want key 2", ek, ev)
	}
	if _, ok := c.Peek(1); !ok {
		t.Fatal("MRU line 1 evicted")
	}
}

func TestSetIsolation(t *testing.T) {
	c := newTest(4, 1)
	// Keys 0..3 land in distinct sets; none should evict another.
	for k := uint64(0); k < 4; k++ {
		if _, _, ev := c.Insert(k, int(k)); ev {
			t.Fatalf("cross-set eviction on key %d", k)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d, want 4", c.Len())
	}
}

func TestInvalidate(t *testing.T) {
	c := newTest(2, 2)
	c.Insert(5, 50)
	if !c.Invalidate(5) {
		t.Fatal("Invalidate missed resident key")
	}
	if c.Invalidate(5) {
		t.Fatal("Invalidate hit absent key")
	}
	if _, ok := c.Peek(5); ok {
		t.Fatal("key survived invalidation")
	}
}

func TestInvalidateRange(t *testing.T) {
	c := newTest(4, 4)
	for k := uint64(0); k < 16; k++ {
		c.Insert(k, int(k))
	}
	// [5, 6] touches two sets; [8, 15] is as wide as the set count and takes
	// the full-sweep path.
	if n := InvalidateRange(c, 5, 6); n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if n := InvalidateRange(c, 8, 15); n != 8 {
		t.Fatalf("removed %d, want 8", n)
	}
	if n := InvalidateRange(c, 3, 2); n != 0 {
		t.Fatalf("empty range removed %d", n)
	}
	if c.Len() != 6 {
		t.Fatalf("len = %d, want 6", c.Len())
	}
	c.Range(func(k uint64, _ int) bool {
		if k >= 5 && k != 7 {
			t.Fatalf("key %d survived", k)
		}
		return true
	})
}

// invalidateIfRef is the reference a range flush must match: a full sweep of
// every set with a per-line predicate, keeping survivors in order.
func invalidateIfRef[V any](c *SetAssoc[uint64, V], pred func(uint64) bool) int {
	removed := 0
	for s := range c.lines {
		kept := c.lines[s][:0]
		for _, l := range c.lines[s] {
			if pred(l.key) {
				removed++
			} else {
				kept = append(kept, l)
			}
		}
		c.lines[s] = kept
	}
	c.size -= removed
	return removed
}

// Property: InvalidateRange removes exactly what a full predicate sweep
// removes and leaves every set's contents and recency order identical, for
// random geometries, identity and scattering index functions, shuffled
// recency, and ranges both narrower and wider than the set count.
func TestInvalidateRangeMatchesReferenceProperty(t *testing.T) {
	scatter := func(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 >> 7 }
	prop := func(ops []uint16, sets8, ways8 uint8, lo16, width8 uint16, scattered bool) bool {
		sets := int(sets8%16) + 1
		ways := int(ways8%8) + 1
		idx := ident
		if scattered {
			idx = scatter
		}
		got := New[uint64, int](sets, ways, idx)
		want := New[uint64, int](sets, ways, idx)
		for i, op := range ops {
			k := uint64(op % 256)
			if op&0x8000 != 0 {
				got.Lookup(k)
				want.Lookup(k)
			} else {
				got.Insert(k, i)
				want.Insert(k, i)
			}
		}
		lo := uint64(lo16 % 256)
		hi := lo + uint64(width8%40) // up to 2.5x the largest set count
		n := InvalidateRange(got, lo, hi)
		m := invalidateIfRef(want, func(k uint64) bool { return k >= lo && k <= hi })
		if n != m || got.Len() != want.Len() {
			return false
		}
		for s := range got.lines {
			if len(got.lines[s]) != len(want.lines[s]) {
				return false
			}
			for i := range got.lines[s] {
				if got.lines[s][i] != want.lines[s][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFlush(t *testing.T) {
	c := newTest(2, 2)
	for k := uint64(0); k < 4; k++ {
		c.Insert(k, 0)
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatalf("len = %d after flush", c.Len())
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	c := newTest(1, 2)
	c.Insert(1, 1)
	c.Insert(2, 2) // MRU=2, LRU=1
	c.Peek(1)      // must NOT promote 1
	ek, _, _ := c.Insert(3, 3)
	if ek != 1 {
		t.Fatalf("evicted %d; Peek promoted the LRU line", ek)
	}
}

// Property: occupancy never exceeds capacity and no set exceeds its ways,
// regardless of the insertion sequence.
func TestCapacityInvariantProperty(t *testing.T) {
	prop := func(keys []uint64, sets8, ways8 uint8) bool {
		sets := int(sets8%8) + 1
		ways := int(ways8%8) + 1
		c := New[uint64, struct{}](sets, ways, ident)
		for _, k := range keys {
			c.Insert(k, struct{}{})
			if c.Len() > c.Capacity() {
				return false
			}
		}
		// Per-set occupancy check.
		counts := make(map[int]int)
		c.Range(func(k uint64, _ struct{}) bool {
			counts[int(k%uint64(sets))]++
			return true
		})
		for _, n := range counts {
			if n > ways {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: an entry just inserted is always resident (insert-then-peek).
func TestInsertThenPeekProperty(t *testing.T) {
	prop := func(keys []uint64) bool {
		c := New[uint64, int](4, 2, ident)
		for i, k := range keys {
			c.Insert(k, i)
			if v, ok := c.Peek(k); !ok || v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
