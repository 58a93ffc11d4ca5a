package datapath

import (
	"testing"
	"testing/quick"

	"idyll/internal/checkpoint"
	"idyll/internal/memdef"
	"idyll/internal/sim"
	"idyll/internal/stats"
)

func newHier(cus int) (*sim.Engine, *Hierarchy, *stats.Sim) {
	e := sim.NewEngine()
	st := new(stats.Sim)
	return e, New(e, cus, DefaultConfig(), st), st
}

func runAccess(t *testing.T, e *sim.Engine, h *Hierarchy, cu int, pa memdef.PAddr, write bool) sim.VTime {
	t.Helper()
	start := e.Now()
	var took sim.VTime = -1
	h.Access(cu, pa, write, func() { took = e.Now() - start })
	e.Run()
	if took < 0 {
		t.Fatal("access never completed")
	}
	return took
}

func TestColdMissGoesToDRAM(t *testing.T) {
	e, h, _ := newHier(1)
	cfg := DefaultConfig()
	want := cfg.L1HitLatency + cfg.L2HitLatency + cfg.DRAMLatency
	if got := runAccess(t, e, h, 0, 0x1000, false); got != want {
		t.Fatalf("cold access took %d, want %d", got, want)
	}
}

func TestL1HitAfterFill(t *testing.T) {
	e, h, st := newHier(1)
	runAccess(t, e, h, 0, 0x1000, false)
	got := runAccess(t, e, h, 0, 0x1000, false)
	if got != DefaultConfig().L1HitLatency {
		t.Fatalf("L1 hit took %d", got)
	}
	if st.L1DHits != 1 {
		t.Fatalf("L1 hits = %d", st.L1DHits)
	}
}

func TestSameLineDifferentWordHits(t *testing.T) {
	e, h, _ := newHier(1)
	runAccess(t, e, h, 0, 0x1000, false)
	if got := runAccess(t, e, h, 0, 0x1030, false); got != DefaultConfig().L1HitLatency {
		t.Fatalf("same-line access took %d", got)
	}
}

func TestL2SharedAcrossCUs(t *testing.T) {
	e, h, st := newHier(2)
	runAccess(t, e, h, 0, 0x2000, false)
	cfg := DefaultConfig()
	// CU1 misses its private L1 but hits the shared L2.
	if got := runAccess(t, e, h, 1, 0x2000, false); got != cfg.L1HitLatency+cfg.L2HitLatency {
		t.Fatalf("cross-CU access took %d", got)
	}
	if st.L2DHits != 1 {
		t.Fatalf("L2 hits = %d", st.L2DHits)
	}
}

func TestInvalidatePageDropsLines(t *testing.T) {
	e, h, _ := newHier(1)
	for off := memdef.PAddr(0); off < 4096; off += 64 {
		runAccess(t, e, h, 0, 0x10000+off, false)
	}
	n := h.InvalidatePage(0x10000)
	if n == 0 {
		t.Fatal("no lines invalidated")
	}
	// Next access to the page must miss to DRAM again.
	cfg := DefaultConfig()
	if got := runAccess(t, e, h, 0, 0x10000, false); got != cfg.L1HitLatency+cfg.L2HitLatency+cfg.DRAMLatency {
		t.Fatalf("post-invalidate access took %d", got)
	}
}

func TestInvalidatePageLeavesNeighbours(t *testing.T) {
	e, h, _ := newHier(1)
	runAccess(t, e, h, 0, 0x10000, false) // page A
	runAccess(t, e, h, 0, 0x11000, false) // page B
	h.InvalidatePage(0x10000)
	if got := runAccess(t, e, h, 0, 0x11000, false); got != DefaultConfig().L1HitLatency {
		t.Fatalf("neighbour page evicted: access took %d", got)
	}
}

func TestHitRates(t *testing.T) {
	e, h, st := newHier(1)
	runAccess(t, e, h, 0, 0, false)
	runAccess(t, e, h, 0, 0, false)
	if st.L1DLookups != 2 || st.L1DHits != 1 {
		t.Fatalf("L1 lookups/hits = %d/%d, want 2/1", st.L1DLookups, st.L1DHits)
	}
	if st.L2DLookups != 1 || st.L2DHits != 0 {
		t.Fatalf("L2 lookups/hits = %d/%d, want 1/0", st.L2DLookups, st.L2DHits)
	}
}

func TestWriteMarksDirty(t *testing.T) {
	e, h, _ := newHier(1)
	// A write then read should both complete; dirty state is internal but
	// the write path must not corrupt residency.
	runAccess(t, e, h, 0, 0x3000, true)
	if got := runAccess(t, e, h, 0, 0x3000, false); got != DefaultConfig().L1HitLatency {
		t.Fatalf("read after write took %d", got)
	}
}

// recounted tallies the per-page resident lines from scratch, for checking
// the incrementally maintained index against. Its masks are exact: l1 marks
// the lines some L1 holds now.
func recounted(h *Hierarchy) map[uint64]pageLines {
	want := make(map[uint64]pageLines)
	count := func(inL2 bool) func(uint64, lineState) bool {
		return func(ln uint64, _ lineState) bool {
			r := want[ln>>h.pageLineShift]
			r.n++
			if inL2 {
				r.l2 |= h.bit(ln)
			} else {
				r.l1 |= h.bit(ln)
			}
			want[ln>>h.pageLineShift] = r
			return true
		}
	}
	h.l2.Range(count(true))
	for _, c := range h.l1 {
		c.Range(count(false))
	}
	return want
}

// indexMatches reports whether the residency index agrees with a recount:
// the same pages, n and the L2 mask equal, the L1 mask a superset.
func indexMatches(h *Hierarchy) bool {
	want := recounted(h)
	if len(want) != h.resident.Len() {
		return false
	}
	for page, w := range want {
		got, ok := h.resident.Get(page)
		if !ok || got.n != w.n || got.l2 != w.l2 || w.l1&^got.l1 != 0 {
			return false
		}
	}
	return true
}

// Property: after any sequence of accesses, page flushes, releases and
// rebuilds, and checkpoint round trips, the residency index matches a fresh recount (indexMatches),
// and a flush removes exactly the page's counted lines and leaves none of
// them cached.
// The caches are shrunk so evictions are frequent: with 4 KB pages a page's
// 64 lines are narrower than the L2's 128 sets but wider than the L1's 16;
// 2 MB pages span every set of both.
func TestResidencyIndexMatchesRecountProperty(t *testing.T) {
	for _, size := range []memdef.PageSize{memdef.Page4K, memdef.Page2M} {
		cfg := DefaultConfig()
		cfg.L1Bytes, cfg.L1Ways = 2<<10, 2
		cfg.L2Bytes, cfg.L2Ways = 16<<10, 2
		cfg.PageBytes = int(size.Bytes())
		linesPerPage := cfg.PageBytes / memdef.CachelineBytes
		// 1024 distinct lines over a few pages, four times the L2's
		// capacity.
		pages, lines := 16, linesPerPage
		if lines > 256 {
			pages, lines = 4, 256
		}
		prop := func(seed uint64) bool {
			rng := sim.NewRand(seed)
			e := sim.NewEngine()
			h := New(e, 2, cfg, new(stats.Sim))
			for i := 0; i < 600; i++ {
				page := uint64(rng.Intn(pages))
				pa := memdef.PAddr(page*uint64(cfg.PageBytes) + uint64(rng.Intn(lines)*memdef.CachelineBytes))
				switch op := rng.Intn(40); {
				case op < 3:
					want := int(recounted(h)[page].n)
					if h.InvalidatePage(pa) != want {
						return false
					}
					for k := 0; k < lines; k++ { // the lines ever touched
						ln := page*uint64(linesPerPage) + uint64(k)
						if _, ok := h.l2.Peek(ln); ok {
							return false
						}
						for _, c := range h.l1 {
							if _, ok := c.Peek(ln); ok {
								return false
							}
						}
					}
				case op < 4:
					// Release and rebuild: a hierarchy reused from the
					// pool starts as empty as a new one, so the index
					// still matches the (now empty) caches.
					var r sim.Recycler
					old := h
					h.Release(&r)
					h = NewFrom(&r, e, 2, cfg, new(stats.Sim))
					if h != old || h.resident.Len() != 0 || h.l2.Len() != 0 {
						return false
					}
				case op < 5:
					w := checkpoint.NewWriter()
					h.SaveState(w)
					r, err := checkpoint.NewReader(w.Finish())
					if err != nil {
						return false
					}
					h = New(e, 2, cfg, new(stats.Sim))
					h.RestoreState(r)
					if r.Finish() != nil {
						return false
					}
				default:
					h.Access(rng.Intn(2), pa, rng.Intn(2) == 0, func() {})
				}
				if !indexMatches(h) {
					return false
				}
			}
			e.Run()
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("%s pages: %v", size, err)
		}
	}
}
