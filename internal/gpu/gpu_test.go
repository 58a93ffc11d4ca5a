package gpu

import (
	"testing"

	"idyll/internal/config"
	"idyll/internal/interconnect"
	"idyll/internal/memdef"
	"idyll/internal/pagetable"
	"idyll/internal/sim"
	"idyll/internal/sim/pdes"
	"idyll/internal/stats"
	"idyll/internal/workload"
)

// fakeHost records GPU→driver traffic.
type fakeHost struct {
	faults     []memdef.VPN
	faultGPUs  []int
	writes     []bool
	migrations []memdef.VPN
	residency  []memdef.VPN
}

func (h *fakeHost) FarFault(gpu int, vpn memdef.VPN, write bool) {
	h.faults = append(h.faults, vpn)
	h.faultGPUs = append(h.faultGPUs, gpu)
	h.writes = append(h.writes, write)
}

func (h *fakeHost) RequestMigration(gpu int, vpn memdef.VPN) {
	h.migrations = append(h.migrations, vpn)
}

func (h *fakeHost) RecordResidency(gpu int, vpn memdef.VPN) {
	h.residency = append(h.residency, vpn)
}

// rig builds one GPU with a fake host on a single-domain cluster, where the
// domain plumbing degenerates to the plain engine the assertions drive.
func rig(t *testing.T, scheme config.Scheme) (*sim.Engine, *GPU, *fakeHost, *stats.Sim) {
	t.Helper()
	return rigFrom(t, nil, scheme)
}

// rigFrom is rig building the GPU from the storage released into r.
func rigFrom(t *testing.T, r *sim.Recycler, scheme config.Scheme) (*sim.Engine, *GPU, *fakeHost, *stats.Sim) {
	t.Helper()
	cl := pdes.NewClusterFrom(r, 1, 1)
	dom := cl.Domain(0)
	e := dom.Engine()
	m := config.Default()
	m.CUsPerGPU = 2
	m.OutstandingPerCU = 2
	m.AccessCounterThreshold = 4
	m.MigrationBlockPages = 1
	st := new(stats.Sim)
	net := interconnect.NewNetwork(cl, interconnect.Config{
		NumGPUs: m.NumGPUs, NVLinkBytesPerCycle: 300, NVLinkLatency: 100,
		PCIeBytesPerCycle: 32, PCIeLatency: 300,
	})
	g := New(dom, 0, m, scheme, net, st)
	h := &fakeHost{}
	g.SetHost(h)
	g.SetWorkloadShape(4, 1)
	return e, g, h, st
}

// accessesTo builds a per-CU trace of repeated accesses to the given pages.
func accessesTo(cus int, pages []memdef.VPN, repeats int, write bool) [][]workload.Access {
	trace := make([][]workload.Access, cus)
	for c := range trace {
		for r := 0; r < repeats; r++ {
			for _, p := range pages {
				trace[c] = append(trace[c], workload.Access{VA: p.Addr(memdef.Page4K), Write: write})
			}
		}
	}
	return trace
}

func TestLocalAccessNeedsNoHost(t *testing.T) {
	e, g, h, st := rig(t, config.Baseline())
	g.Preinstall(5, pagetable.PTE{PFN: memdef.MakePFN(memdef.GPUDevice(0), 1), Valid: true, Writable: true})
	done := false
	g.Run(accessesTo(1, []memdef.VPN{5}, 3, false), func() { done = true })
	e.Run()
	if !done {
		t.Fatal("GPU never finished")
	}
	if len(h.faults) != 0 {
		t.Fatalf("local access faulted: %v", h.faults)
	}
	if st.LocalAccesses != 3 {
		t.Fatalf("local accesses = %d", st.LocalAccesses)
	}
}

func TestUnmappedAccessFarFaults(t *testing.T) {
	e, g, h, _ := rig(t, config.Baseline())
	g.Run(accessesTo(1, []memdef.VPN{9}, 1, false), nil)
	e.RunUntil(5000)
	if len(h.faults) != 1 || h.faults[0] != 9 {
		t.Fatalf("faults = %v", h.faults)
	}
	// Reply unblocks the stalled access.
	g.ReceiveMapping(9, pagetable.PTE{PFN: memdef.MakePFN(memdef.GPUDevice(0), 2), Valid: true, Writable: true})
	e.Run()
	if g.DoneAt() == 0 {
		t.Fatal("access never completed after mapping reply")
	}
}

func TestMSHRBlocksDuplicateFaults(t *testing.T) {
	e, g, h, st := rig(t, config.Baseline())
	// Both CUs, both slots, hammer the same unmapped page.
	g.Run(accessesTo(2, []memdef.VPN{3}, 2, false), nil)
	e.RunUntil(20000)
	if len(h.faults) != 1 {
		t.Fatalf("same-page faults = %d, want 1 (MSHR merging)", len(h.faults))
	}
	if st.MSHRMerges == 0 {
		t.Fatal("no MSHR merges recorded")
	}
	g.ReceiveMapping(3, pagetable.PTE{PFN: memdef.MakePFN(memdef.GPUDevice(0), 1), Valid: true, Writable: true})
	e.Run()
	if st.Accesses != 4 {
		t.Fatalf("accesses = %d, want 4 (2 CUs x 2 accesses)", st.Accesses)
	}
}

func TestRemoteAccessCountsTowardMigration(t *testing.T) {
	e, g, h, st := rig(t, config.Baseline())
	// Map page 7 to remote GPU1 memory; threshold is 4.
	g.Preinstall(7, pagetable.PTE{PFN: memdef.MakePFN(memdef.GPUDevice(1), 1), Valid: true, Writable: true})
	g.Run(accessesTo(1, []memdef.VPN{7}, 6, false), nil)
	e.Run()
	if st.RemoteAccesses != 6 {
		t.Fatalf("remote accesses = %d", st.RemoteAccesses)
	}
	if len(h.migrations) != 1 || h.migrations[0] != 7 {
		t.Fatalf("migration requests = %v, want one for page 7", h.migrations)
	}
}

// A GPU built after another was released starts with empty per-page
// tables: an access counter left below the threshold by the released GPU
// must not carry over and fire a migration request early.
func TestReleasedGPUStartsEmpty(t *testing.T) {
	remote := pagetable.PTE{PFN: memdef.MakePFN(memdef.GPUDevice(1), 1), Valid: true, Writable: true}
	var r sim.Recycler
	e, g, _, _ := rigFrom(t, &r, config.Baseline())
	g.Preinstall(7, remote)
	g.Run(accessesTo(1, []memdef.VPN{7}, 3, false), nil) // threshold is 4
	e.Run()
	maps := g.pageMaps
	g.Release()
	if g.gmmu != nil || g.data != nil || g.pageMaps != nil {
		t.Fatal("released GPU keeps its storage")
	}
	e, g, h, _ := rigFrom(t, &r, config.Baseline())
	if g.pageMaps != maps {
		t.Fatal("the released GPU's per-page tables were not reused")
	}
	if g.counters.Len()+g.irmbReceipt.Len()+g.pendingWB.Len()+g.shotDown.Len()+g.invalEpoch.Len() != 0 {
		t.Fatal("reused per-page tables are not empty")
	}
	g.Preinstall(7, remote)
	g.Run(accessesTo(1, []memdef.VPN{7}, 6, false), nil)
	e.Run()
	if len(h.migrations) != 1 {
		t.Fatalf("migration requests = %v, want one for page 7", h.migrations)
	}
}

func TestFirstTouchPolicyNeverRequestsMigration(t *testing.T) {
	e, g, h, _ := rig(t, config.FirstTouchScheme())
	g.Preinstall(7, pagetable.PTE{PFN: memdef.MakePFN(memdef.GPUDevice(1), 1), Valid: true, Writable: true})
	g.Run(accessesTo(1, []memdef.VPN{7}, 10, false), nil)
	e.Run()
	if len(h.migrations) != 0 {
		t.Fatalf("first-touch requested migrations: %v", h.migrations)
	}
}

func TestBaselineInvalidationWalksAndAcks(t *testing.T) {
	e, g, _, st := rig(t, config.Baseline())
	g.Preinstall(11, pagetable.PTE{PFN: memdef.MakePFN(memdef.GPUDevice(0), 1), Valid: true, Writable: true})
	acked := sim.VTime(-1)
	g.ReceiveInvalidation(11, func() { acked = e.Now() })
	e.Run()
	if acked < 400 {
		t.Fatalf("baseline ack at %d; must wait for the full PT walk", acked)
	}
	if st.InvalNecessary != 1 {
		t.Fatalf("necessary invals = %d", st.InvalNecessary)
	}
	if pte, _ := g.GMMU().PageTable().Lookup(11); pte.Valid {
		t.Fatal("PTE still valid")
	}
}

func TestLazyInvalidationAcksImmediately(t *testing.T) {
	e, g, _, st := rig(t, config.IDYLL())
	g.Preinstall(11, pagetable.PTE{PFN: memdef.MakePFN(memdef.GPUDevice(0), 1), Valid: true, Writable: true})
	acked := sim.VTime(-1)
	g.ReceiveInvalidation(11, func() { acked = e.Now() })
	if acked != -1 {
		t.Fatal("ack before any simulated time")
	}
	e.RunUntil(2)
	if acked != 1 {
		t.Fatalf("lazy ack at %d, want 1 (buffered, not walked)", acked)
	}
	if st.IRMBInserts != 1 {
		t.Fatalf("IRMB inserts = %d", st.IRMBInserts)
	}
	// The drain-on-idle hook eventually writes the invalidation back.
	e.Run()
	if pte, _ := g.GMMU().PageTable().Lookup(11); pte.Valid {
		t.Fatal("drained invalidation never reached the PTE")
	}
}

func TestZeroLatencyInvalidationIsFree(t *testing.T) {
	e, g, _, st := rig(t, config.ZeroLatency())
	g.Preinstall(11, pagetable.PTE{PFN: memdef.MakePFN(memdef.GPUDevice(0), 1), Valid: true, Writable: true})
	acked := false
	g.ReceiveInvalidation(11, func() { acked = true })
	if !acked {
		t.Fatal("zero-latency ack not immediate")
	}
	if pte, _ := g.GMMU().PageTable().Lookup(11); pte.Valid {
		t.Fatal("zero-latency PTE not invalidated instantly")
	}
	if st.WalkerInval != 0 {
		t.Fatal("zero-latency used the walker")
	}
	_ = e
}

// accessOnce issues one access by cu outside any trace on a slot of its own,
// calling done when the access retires.
func accessOnce(g *GPU, cu int, acc workload.Access, done func()) {
	s := &slot{}
	g.newSlot(s, cu)
	s.acc, s.retire = acc, done
	g.access(s)
}

func TestInvalidationShootsDownTLBs(t *testing.T) {
	e, g, h, _ := rig(t, config.Baseline())
	g.Preinstall(5, pagetable.PTE{PFN: memdef.MakePFN(memdef.GPUDevice(0), 1), Valid: true, Writable: true})
	g.Run(accessesTo(1, []memdef.VPN{5}, 2, false), nil) // warms TLBs
	e.Run()
	g.ReceiveInvalidation(5, func() {})
	e.Run()
	// Next access to the page must miss the TLBs and walk → the PTE is now
	// invalid → far fault.
	accessOnce(g, 0, workload.Access{VA: memdef.VPN(5).Addr(memdef.Page4K)}, func() {})
	e.RunUntil(e.Now() + 5000)
	if len(h.faults) == 0 {
		t.Fatal("post-shootdown access did not fault")
	}
}

// The heart of lazy invalidation: a demand miss that hits the IRMB must
// bypass the local walk and fault directly, never seeing the stale PTE.
func TestIRMBHitBypassesWalk(t *testing.T) {
	e, g, h, st := rig(t, config.IDYLL())
	g.Preinstall(13, pagetable.PTE{PFN: memdef.MakePFN(memdef.GPUDevice(1), 1), Valid: true, Writable: true})
	// Saturate the walker so the IRMB cannot drain before our access.
	for i := 0; i < 64; i++ {
		g.GMMU().Demand(memdef.VPN(1000+i), func(pagetable.PTE, bool) {})
	}
	g.ReceiveInvalidation(13, func() {})
	walksBefore := st.WalkerDemand
	accessOnce(g, 0, workload.Access{VA: memdef.VPN(13).Addr(memdef.Page4K)}, func() {})
	e.RunUntil(e.Now() + 1500) // covers the PCIe delivery of the fault
	if st.IRMBLookupHits == 0 {
		t.Fatal("demand miss did not hit the IRMB")
	}
	if len(h.faults) != 1 || h.faults[0] != 13 {
		t.Fatalf("faults = %v, want direct far fault for 13", h.faults)
	}
	if st.WalkerDemand != walksBefore {
		t.Fatal("IRMB hit still launched a demand walk")
	}
	e.Run()
}

func TestReceiveMappingAnnihilatesBufferedInvalidation(t *testing.T) {
	e, g, _, _ := rig(t, config.IDYLL())
	g.Preinstall(17, pagetable.PTE{PFN: memdef.MakePFN(memdef.GPUDevice(1), 1), Valid: true, Writable: true})
	// Saturate walkers so the entry stays buffered.
	for i := 0; i < 32; i++ {
		g.GMMU().Demand(memdef.VPN(2000+i), func(pagetable.PTE, bool) {})
	}
	g.ReceiveInvalidation(17, func() {})
	if !g.IRMB().Lookup(17) {
		t.Fatal("invalidation not buffered")
	}
	newPTE := pagetable.PTE{PFN: memdef.MakePFN(memdef.GPUDevice(0), 9), Valid: true, Writable: true}
	g.ReceiveMapping(17, newPTE)
	if g.IRMB().Lookup(17) {
		t.Fatal("new mapping did not remove the buffered invalidation")
	}
	e.Run()
	// The fresh mapping must survive (no stale write-back destroyed it).
	pte, ok := g.GMMU().PageTable().Lookup(17)
	if !ok || !pte.Valid || pte.PFN != newPTE.PFN {
		t.Fatalf("fresh mapping lost: %+v,%v", pte, ok)
	}
}

func TestWriteToReadOnlyMappingFaultsAsWrite(t *testing.T) {
	e, g, h, _ := rig(t, config.ReplicationScheme())
	g.Preinstall(19, pagetable.PTE{PFN: memdef.MakePFN(memdef.GPUDevice(0), 1), Valid: true, Writable: false})
	g.Run(accessesTo(1, []memdef.VPN{19}, 1, true), nil)
	e.RunUntil(20000)
	if len(h.faults) == 0 {
		t.Fatal("write to read-only mapping did not fault")
	}
	if !h.writes[len(h.writes)-1] {
		t.Fatal("permission fault not flagged as a write")
	}
}

func TestPRTInsertAndInvalidate(t *testing.T) {
	_, g, _, _ := rig(t, config.TransFWScheme())
	g.ReceivePRTInsert(23, 2)
	if holder, ok := g.PRT().Lookup(23); !ok || holder != 2 {
		t.Fatalf("PRT lookup = %d,%v", holder, ok)
	}
	g.ReceiveInvalidation(23, func() {})
	if _, ok := g.PRT().Lookup(23); ok {
		t.Fatal("invalidation did not clear the PRT fingerprint")
	}
}

// The GPU issues exactly its trace's accesses, so the trace's sharing
// profile describes the run.
func TestSharingRecorded(t *testing.T) {
	e, g, _, st := rig(t, config.Baseline())
	g.Preinstall(2, pagetable.PTE{PFN: memdef.MakePFN(memdef.GPUDevice(0), 1), Valid: true, Writable: true})
	acc := accessesTo(1, []memdef.VPN{2}, 4, false)
	g.Run(acc, nil)
	e.Run()
	sh := workload.FromAccesses("t", [][][]workload.Access{acc}, 0, 1).Sharing(memdef.Page4K)
	if st.Accesses != 4 || sh.Pages() != 1 || sh[0].Accesses != st.Accesses {
		t.Fatalf("issued %d accesses; trace sharing %+v", st.Accesses, sh)
	}
}
