package tlb

import (
	"slices"
	"testing"
	"testing/quick"

	"idyll/internal/cache"
	"idyll/internal/checkpoint"
	"idyll/internal/memdef"
	"idyll/internal/sim"
)

func newL1() *TLB {
	// Table 2: L1 TLB, 32 entries, fully associative (32-way), 1 cycle.
	return New(Config{Entries: 32, Ways: 32, Latency: 1})
}

func newL2() *TLB {
	// Table 2: L2 TLB, 512 entries, 16-way, 10 cycles.
	return New(Config{Entries: 512, Ways: 16, Latency: 10})
}

func TestFillLookup(t *testing.T) {
	l1 := newL1()
	e := Entry{PFN: memdef.MakePFN(memdef.GPUDevice(1), 3), Writable: true}
	l1.Fill(100, e)
	got, ok := l1.Lookup(100)
	if !ok || got != e {
		t.Fatalf("Lookup = %+v,%v", got, ok)
	}
	if _, ok := l1.Lookup(101); ok {
		t.Fatal("phantom hit")
	}
}

func TestL1FullyAssociativeCapacity(t *testing.T) {
	l1 := newL1()
	for v := memdef.VPN(0); v < 32; v++ {
		l1.Fill(v, Entry{})
	}
	if l1.Len() != 32 {
		t.Fatalf("len = %d, want 32", l1.Len())
	}
	// The 33rd fill evicts the LRU (vpn 0), regardless of address bits —
	// fully associative TLBs have a single set.
	l1.Fill(1<<30, Entry{})
	if l1.Len() != 32 {
		t.Fatalf("len = %d after overflow, want 32", l1.Len())
	}
	if _, ok := l1.Lookup(0); ok {
		t.Fatal("LRU entry survived in full L1")
	}
}

func TestL2SetAssociativity(t *testing.T) {
	l2 := newL2()
	// 512/16 = 32 sets. VPNs congruent mod 32 share a set; 17 of them must
	// overflow a 16-way set while leaving other sets untouched.
	for i := 0; i < 17; i++ {
		l2.Fill(memdef.VPN(i*32), Entry{})
	}
	if l2.Len() != 16 {
		t.Fatalf("set holds %d entries, want 16", l2.Len())
	}
}

func TestShootdown(t *testing.T) {
	l2 := newL2()
	l2.Fill(7, Entry{})
	if !l2.Shootdown(7) {
		t.Fatal("shootdown of resident entry must hit")
	}
	if l2.Shootdown(7) {
		t.Fatal("second shootdown must miss")
	}
	if _, ok := l2.Lookup(7); ok {
		t.Fatal("entry survived shootdown")
	}
}

func TestFlush(t *testing.T) {
	l1 := newL1()
	for v := memdef.VPN(0); v < 10; v++ {
		l1.Fill(v, Entry{})
	}
	l1.Flush()
	if l1.Len() != 0 {
		t.Fatal("flush left entries")
	}
}

// A released TLB comes back from NewFrom as empty as a new one: no entry,
// every filter bucket zero, and shootdowns of its old pages find nothing.
// It comes back only for its own geometry.
func TestReleasedTLBStartsEmpty(t *testing.T) {
	var r sim.Recycler
	l2cfg := Config{Entries: 512, Ways: 16, Latency: 10}
	var prev *TLB
	for i := 0; i < 4; i++ {
		l2 := NewFrom(&r, l2cfg)
		if prev != nil && l2 != prev {
			t.Fatalf("round %d: the released TLB was not reused", i)
		}
		if l2.Len() != 0 || slices.ContainsFunc(l2.counts, func(c uint16) bool { return c != 0 }) {
			t.Fatalf("round %d: new TLB holds %d entries", i, l2.Len())
		}
		for v := memdef.VPN(0); v < 1800; v++ {
			if l2.Shootdown(v) {
				t.Fatalf("round %d: shootdown of page %d found a stale entry", i, v)
			}
		}
		for v := memdef.VPN(0); v < 600; v++ {
			l2.Fill(v*3, Entry{PFN: memdef.PFN(v)})
		}
		l2.Release(&r)
		if l1 := NewFrom(&r, Config{Entries: 32, Ways: 32, Latency: 1}); l1 == l2 {
			t.Fatal("an L2 TLB was reused for an L1 geometry")
		}
		prev = l2
	}
}

func TestMSHRMergesSamePage(t *testing.T) {
	m := NewMSHR[int](8)
	if got := m.Add(5, 1); got != Allocated {
		t.Fatalf("first add = %v, want Allocated", got)
	}
	if got := m.Add(5, 2); got != Merged {
		t.Fatalf("second add = %v, want Merged", got)
	}
	if got := m.Add(6, 3); got != Allocated {
		t.Fatalf("other page = %v, want Allocated", got)
	}
	ws := m.Complete(5)
	if len(ws) != 2 || ws[0] != 1 || ws[1] != 2 {
		t.Fatalf("waiters = %v", ws)
	}
	if m.Pending(5) {
		t.Fatal("entry survived Complete")
	}
	if !m.Pending(6) {
		t.Fatal("unrelated entry lost")
	}
}

func TestMSHRCapacity(t *testing.T) {
	m := NewMSHR[int](2)
	m.Add(1, 0)
	m.Add(2, 0)
	if got := m.Add(3, 0); got != Full {
		t.Fatalf("overflow add = %v, want Full", got)
	}
	// Merging into an existing entry is allowed even when full.
	if got := m.Add(1, 9); got != Merged {
		t.Fatalf("merge while full = %v, want Merged", got)
	}
	m.Complete(1)
	if got := m.Add(3, 0); got != Allocated {
		t.Fatalf("add after free = %v, want Allocated", got)
	}
}

// Property: for any interleaving of adds, every waiter comes back exactly
// once via Complete, in arrival order per page.
func TestMSHRWaiterConservationProperty(t *testing.T) {
	prop := func(pages []uint8) bool {
		m := NewMSHR[int](0)
		want := map[memdef.VPN][]int{}
		for i, p := range pages {
			vpn := memdef.VPN(p % 16)
			m.Add(vpn, i)
			want[vpn] = append(want[vpn], i)
		}
		for vpn, ws := range want {
			got := m.Complete(vpn)
			if len(got) != len(ws) {
				return false
			}
			for i := range ws {
				if got[i] != ws[i] {
					return false
				}
			}
		}
		return m.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refTLB is a filter-free TLB: the same set-associative store, with every
// shootdown scanning its set. TestShootdownFilterProperty checks the
// filtered TLB against it.
type refTLB struct {
	c *cache.SetAssoc[memdef.VPN, Entry]
}

func (r *refTLB) shootdown(vpn memdef.VPN) bool { return r.c.Invalidate(vpn) }

// Property: over random Fill / Lookup / Shootdown / Flush sequences with
// checkpoint round trips, each bucket count equals a recount of the
// resident VPNs, and Shootdown's result equals that of the filter-free
// reference. VPNs are drawn from a range about
// four times the TLB's capacity, so fills evict and most shootdowns miss.
func TestShootdownFilterProperty(t *testing.T) {
	for _, cfg := range []Config{{Entries: 32, Ways: 32}, {Entries: 512, Ways: 16}} {
		prop := func(seed uint64) bool {
			rng := sim.NewRand(seed)
			tl := New(cfg)
			ref := &refTLB{c: cache.New[memdef.VPN, Entry](cfg.Entries/cfg.Ways, cfg.Ways,
				func(v memdef.VPN) uint64 { return uint64(v) })}
			for i := 0; i < 3000; i++ {
				vpn := memdef.VPN(rng.Intn(4 * cfg.Entries))
				switch op := rng.Intn(100); {
				case op < 45:
					e := Entry{PFN: memdef.PFN(i), Writable: rng.Intn(2) == 0}
					tl.Fill(vpn, e)
					ref.c.Insert(vpn, e)
				case op < 60:
					tl.Lookup(vpn)
					ref.c.Lookup(vpn)
				case op < 97:
					if tl.Shootdown(vpn) != ref.shootdown(vpn) {
						return false
					}
				case op < 98:
					tl.Flush()
					ref.c.Flush()
				default:
					w := checkpoint.NewWriter()
					tl.SaveState(w)
					r, err := checkpoint.NewReader(w.Finish())
					if err != nil {
						return false
					}
					tl = New(cfg)
					tl.RestoreState(r)
					if r.Finish() != nil {
						return false
					}
				}
				want := make([]uint16, 1<<(64-tl.shift))
				ref.c.Range(func(v memdef.VPN, _ Entry) bool {
					want[tl.bucket(v)]++
					return true
				})
				got := tl.counts
				if got == nil { // never filled: every bucket is empty
					got = make([]uint16, len(want))
				}
				if tl.Len() != ref.c.Len() || !slices.Equal(got, want) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatalf("%d entries: %v", cfg.Entries, err)
		}
	}
}

// TestMSHRAllocatesNothingWarm: Add (allocate and merge), Complete and
// Recycle reuse the MSHR's table and waiter slices once it has warmed up.
func TestMSHRAllocatesNothingWarm(t *testing.T) {
	m := NewMSHR[int](4)
	allocs := testing.AllocsPerRun(100, func() {
		if m.Add(1, 1) != Allocated || m.Add(1, 2) != Merged || m.Add(1<<40, 3) != Allocated {
			t.Fatal("unexpected outcome")
		}
		if ws := m.Complete(1); len(ws) != 2 {
			t.Fatalf("waiters = %v", ws)
		} else {
			m.Recycle(ws)
		}
		m.Recycle(m.Complete(1 << 40))
	})
	if allocs != 0 {
		t.Fatalf("warm MSHR allocates %v times per miss round", allocs)
	}
}
