package walker

import (
	"testing"

	"idyll/internal/memdef"
	"idyll/internal/pagetable"
	"idyll/internal/sim"
	"idyll/internal/stats"
)

func newGMMU(threads int) (*sim.Engine, *GMMU, *pagetable.Table, *stats.Sim) {
	e := sim.NewEngine()
	pt := pagetable.New(memdef.Page4K)
	st := new(stats.Sim)
	cfg := DefaultConfig()
	cfg.Threads = threads
	g := New(e, pt, cfg, st)
	return e, g, pt, st
}

func TestDemandWalkColdCostsFourLevels(t *testing.T) {
	e, g, pt, _ := newGMMU(8)
	pt.Map(42, pagetable.PTE{PFN: 7, Valid: true})
	var at sim.VTime
	var got pagetable.PTE
	g.Demand(42, func(pte pagetable.PTE, ok bool) {
		if !ok {
			t.Error("walk missed mapped page")
		}
		got, at = pte, e.Now()
	})
	e.Run()
	// Cold PWC: 4 levels × 100 cycles.
	if at != 400 {
		t.Fatalf("cold walk finished at %d, want 400", at)
	}
	if got.PFN != 7 {
		t.Fatalf("walk returned PFN %d", got.PFN)
	}
}

func TestDemandWalkWarmUsesPWC(t *testing.T) {
	e, g, pt, st := newGMMU(8)
	pt.Map(100, pagetable.PTE{Valid: true})
	pt.Map(101, pagetable.PTE{Valid: true}) // same non-leaf path
	var first, second sim.VTime
	g.Demand(100, func(pagetable.PTE, bool) {
		first = e.Now()
		g.Demand(101, func(pagetable.PTE, bool) { second = e.Now() })
	})
	e.Run()
	if first != 400 {
		t.Fatalf("first walk at %d", first)
	}
	// Second walk: 3 PWC hits (1 cycle each) + leaf access (100).
	if second-first != 103 {
		t.Fatalf("warm walk took %d, want 103", second-first)
	}
	if st.PWCHits != 3 {
		t.Fatalf("PWC hits = %d, want 3", st.PWCHits)
	}
}

func TestDemandWalkAbsentSubtreeStopsEarly(t *testing.T) {
	e, g, _, _ := newGMMU(8)
	var at sim.VTime
	g.Demand(12345, func(pte pagetable.PTE, ok bool) {
		if ok {
			t.Error("walk found mapping in empty table")
		}
		at = e.Now()
	})
	e.Run()
	// Empty table: only the top level is inspected (100 cycles).
	if at != 100 {
		t.Fatalf("early-stop walk at %d, want 100", at)
	}
}

func TestWalkerThreadContention(t *testing.T) {
	e, g, pt, _ := newGMMU(1) // single walker: strictly serial
	pt.Map(1, pagetable.PTE{Valid: true})
	pt.Map(2, pagetable.PTE{Valid: true})
	var finish []sim.VTime
	g.Demand(1, func(pagetable.PTE, bool) { finish = append(finish, e.Now()) })
	g.Demand(2, func(pagetable.PTE, bool) { finish = append(finish, e.Now()) })
	e.Run()
	if len(finish) != 2 {
		t.Fatalf("completed %d walks", len(finish))
	}
	if finish[0] != 400 {
		t.Fatalf("first = %d", finish[0])
	}
	// Second waits for the first, then walks warm: 3×1 + 100.
	if finish[1] != 503 {
		t.Fatalf("second = %d, want 503", finish[1])
	}
}

func TestInvalidateReportsNecessity(t *testing.T) {
	e, g, pt, st := newGMMU(8)
	pt.Map(9, pagetable.PTE{Valid: true})
	necessary := -1
	g.Invalidate(9, func(wasValid bool) {
		if wasValid {
			necessary = 1
		} else {
			necessary = 0
		}
	})
	e.Run()
	if necessary != 1 || st.InvalNecessary != 1 {
		t.Fatal("invalidation of valid PTE should be necessary")
	}
	// Second invalidation: stale entry, unnecessary, but still a full walk.
	start := e.Now()
	var took sim.VTime
	g.Invalidate(9, func(wasValid bool) {
		if wasValid {
			t.Error("stale PTE reported valid")
		}
		took = e.Now() - start
	})
	e.Run()
	if st.InvalUnnecessary != 1 {
		t.Fatalf("unnecessary = %d", st.InvalUnnecessary)
	}
	if took != 103 { // warm PWC + leaf
		t.Fatalf("unnecessary walk took %d", took)
	}
	if pt.ValidCount() != 0 {
		t.Fatal("PTE still valid")
	}
}

func TestInvalidateAbsentPageWalksPartially(t *testing.T) {
	e, g, _, st := newGMMU(8)
	var took sim.VTime
	g.Invalidate(777, func(wasValid bool) {
		if wasValid {
			t.Error("absent PTE reported valid")
		}
		took = e.Now()
	})
	e.Run()
	if took != 100 { // stops at absent L4
		t.Fatalf("absent-page invalidation took %d", took)
	}
	if st.InvalUnnecessary != 1 {
		t.Fatal("absent-page invalidation must count as unnecessary")
	}
}

func TestInvalidateBatchAmortizesPWC(t *testing.T) {
	e, g, pt, _ := newGMMU(8)
	vpns := make([]memdef.VPN, 8)
	for i := range vpns {
		vpns[i] = memdef.VPN(0x4000 + i) // same base, offsets 0..7
		pt.Map(vpns[i], pagetable.PTE{Valid: true})
	}
	var took sim.VTime
	g.InvalidateBatch(vpns, func() { took = e.Now() })
	e.Run()
	// First page: 400 cold. Remaining 7: 3 PWC hits + leaf = 103 each.
	want := sim.VTime(400 + 7*103)
	if took != want {
		t.Fatalf("batch took %d, want %d", took, want)
	}
	if pt.ValidCount() != 0 {
		t.Fatal("batch left valid PTEs")
	}
}

func TestInvalidateBatchHoldsSingleThread(t *testing.T) {
	e, g, pt, _ := newGMMU(2)
	vpns := []memdef.VPN{1, 2, 3}
	for _, v := range vpns {
		pt.Map(v, pagetable.PTE{Valid: true})
	}
	pt.Map(1<<27, pagetable.PTE{Valid: true}) // different subtree
	var batchDone, demandDone sim.VTime
	g.InvalidateBatch(vpns, func() { batchDone = e.Now() })
	g.Demand(1<<27, func(pagetable.PTE, bool) { demandDone = e.Now() })
	e.Run()
	// With 2 threads the demand walk proceeds concurrently on thread 2 and
	// must not wait for the batch.
	if demandDone != 400 {
		t.Fatalf("demand finished at %d, want 400 (no batch interference)", demandDone)
	}
	if batchDone != 400+103+103 {
		t.Fatalf("batch finished at %d", batchDone)
	}
}

func TestUpdateInstallsMapping(t *testing.T) {
	e, g, pt, _ := newGMMU(8)
	var at sim.VTime
	g.UpdateUnless(55, pagetable.PTE{PFN: 3, Valid: true}, nil, func() { at = e.Now() })
	e.Run()
	if at != 400 {
		t.Fatalf("update took %d, want 400 (full path creation)", at)
	}
	pte, ok := pt.Lookup(55)
	if !ok || !pte.Valid || pte.PFN != 3 {
		t.Fatalf("mapping not installed: %+v %v", pte, ok)
	}
}

func TestQueueBackpressureRetries(t *testing.T) {
	e := sim.NewEngine()
	pt := pagetable.New(memdef.Page4K)
	st := new(stats.Sim)
	cfg := DefaultConfig()
	cfg.Threads = 1
	cfg.QueueCapacity = 2
	g := New(e, pt, cfg, st)
	done := 0
	for i := 0; i < 10; i++ {
		g.Demand(memdef.VPN(i), func(pagetable.PTE, bool) { done++ })
	}
	e.Run()
	if done != 10 {
		t.Fatalf("only %d/10 walks completed under backpressure", done)
	}
	if st.WalkQueueRejects == 0 {
		t.Fatal("expected walk-queue rejections with capacity 2")
	}
}

func TestOnIdleFiresAfterDrain(t *testing.T) {
	e, g, pt, _ := newGMMU(2)
	pt.Map(1, pagetable.PTE{Valid: true})
	idle := 0
	g.SetOnIdle(func() { idle++ })
	g.Demand(1, func(pagetable.PTE, bool) {})
	e.Run()
	if idle == 0 {
		t.Fatal("OnIdle never fired after queue drained")
	}
	if !g.Idle() {
		t.Fatal("GMMU should be idle")
	}
}

// Walk requests are pooled records with continuations bound once, so once
// a GMMU has served each kind of request, serving more — queued behind busy
// walkers and rejected by a full queue included — allocates nothing.
func TestWalksAreAllocationFree(t *testing.T) {
	e, g, pt, _ := newGMMU(2)
	for v := memdef.VPN(0); v < 64; v++ {
		pt.Map(v, pagetable.PTE{Valid: true})
	}
	batch := []memdef.VPN{1, 2, 3}
	demandDone := func(pagetable.PTE, bool) {}
	invalDone := func(bool) {}
	done := func() {}
	skip := func(memdef.VPN) bool { return false }
	each := func(memdef.VPN, bool) {}
	round := func() {
		for i := 0; i < 80; i++ { // more than threads + queue: some retry
			v := memdef.VPN(i % 64)
			switch i % 4 {
			case 0:
				g.Demand(v, demandDone)
			case 1:
				g.Invalidate(v, invalDone)
			case 2:
				g.UpdateUnless(v, pagetable.PTE{Valid: true}, nil, done)
			default:
				g.InvalidateBatchFiltered(batch, skip, each, done)
			}
		}
		e.Run()
	}
	round() // warm the pools: walk records, event nodes, release states
	if n := testing.AllocsPerRun(5, round); n != 0 {
		t.Fatalf("a round of walks allocated %.1f times, want 0", n)
	}
}
