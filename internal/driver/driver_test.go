package driver

import (
	"testing"

	"idyll/internal/config"
	"idyll/internal/interconnect"
	"idyll/internal/memdef"
	"idyll/internal/pagetable"
	"idyll/internal/sim"
	"idyll/internal/sim/pdes"
	"idyll/internal/stats"
)

// fakeGPU records driver→GPU traffic and acks invalidations after a fixed
// delay, standing in for the full GPU model.
type fakeGPU struct {
	engine   *sim.Engine
	ackDelay sim.VTime

	invals   []memdef.VPN
	mappings map[memdef.VPN]pagetable.PTE
	prt      []memdef.VPN
}

func newFakeGPU(e *sim.Engine, ackDelay sim.VTime) *fakeGPU {
	return &fakeGPU{engine: e, ackDelay: ackDelay, mappings: make(map[memdef.VPN]pagetable.PTE)}
}

func (f *fakeGPU) ReceiveInvalidation(vpn memdef.VPN, ack func()) {
	f.invals = append(f.invals, vpn)
	f.engine.Schedule(f.ackDelay, ack)
}

func (f *fakeGPU) ReceiveMapping(vpn memdef.VPN, pte pagetable.PTE) {
	f.mappings[vpn] = pte
}

func (f *fakeGPU) ReceivePRTInsert(vpn memdef.VPN, holder int) {
	f.prt = append(f.prt, vpn)
}

// rig builds a driver with four fake GPUs on a single-domain cluster, where
// the domain plumbing degenerates to the plain engine the assertions drive.
func rig(t *testing.T, scheme config.Scheme) (*sim.Engine, *Driver, []*fakeGPU, *stats.Sim) {
	t.Helper()
	cl := pdes.NewCluster(1, 1)
	dom := cl.Domain(0)
	e := dom.Engine()
	m := config.Default()
	m.MigrationBlockPages = 1 // page-granular for precise assertions
	st := new(stats.Sim)
	net := interconnect.NewNetwork(cl, interconnect.Config{
		NumGPUs:             m.NumGPUs,
		NVLinkBytesPerCycle: m.NVLinkBytesPerCycle,
		NVLinkLatency:       m.NVLinkLatency,
		PCIeBytesPerCycle:   m.PCIeBytesPerCycle,
		PCIeLatency:         m.PCIeLatency,
	})
	d := New(dom, m, scheme, net, st)
	fakes := make([]*fakeGPU, m.NumGPUs)
	ports := make([]GPUPort, m.NumGPUs)
	for i := range fakes {
		fakes[i] = newFakeGPU(e, 50)
		ports[i] = fakes[i]
	}
	d.AttachGPUs(ports)
	return e, d, fakes, st
}

func TestFirstTouchPlacesPageOnFaultingGPU(t *testing.T) {
	e, d, fakes, _ := rig(t, config.Baseline())
	d.FarFault(2, 100, false)
	e.Run()
	owner, ok := d.Owner(100)
	if !ok || owner != memdef.GPUDevice(2) {
		t.Fatalf("owner = %v,%v; want GPU2", owner, ok)
	}
	pte, ok := fakes[2].mappings[100]
	if !ok || !pte.Valid || pte.PFN.Device() != memdef.GPUDevice(2) {
		t.Fatalf("GPU2 mapping = %+v,%v", pte, ok)
	}
}

func TestSecondFaultGetsRemoteMapping(t *testing.T) {
	e, d, fakes, _ := rig(t, config.Baseline())
	d.FarFault(0, 7, false)
	e.Run()
	d.FarFault(1, 7, false)
	e.Run()
	pte, ok := fakes[1].mappings[7]
	if !ok || pte.PFN.Device() != memdef.GPUDevice(0) {
		t.Fatalf("GPU1 should get a remote mapping to GPU0's memory, got %+v,%v", pte, ok)
	}
}

func TestMigrationBroadcastsAndMoves(t *testing.T) {
	e, d, fakes, st := rig(t, config.Baseline())
	d.FarFault(0, 7, false) // owner: GPU0
	e.Run()
	d.FarFault(1, 7, false) // GPU1 remote-maps
	e.Run()
	d.RequestMigration(1, 7)
	e.Run()
	if owner, _ := d.Owner(7); owner != memdef.GPUDevice(1) {
		t.Fatalf("page did not move: owner %v", owner)
	}
	// Broadcast: every GPU got exactly one invalidation.
	for i, f := range fakes {
		if len(f.invals) != 1 || f.invals[0] != 7 {
			t.Fatalf("GPU%d invals = %v", i, f.invals)
		}
	}
	if st.Migrations != 1 {
		t.Fatalf("migrations = %d", st.Migrations)
	}
	if st.MigrationWait.Count != 1 || st.MigrationWait.Max == 0 {
		t.Fatalf("wait latency not recorded: %+v", st.MigrationWait)
	}
	// The new owner received a fresh local mapping.
	if pte := fakes[1].mappings[7]; pte.PFN.Device() != memdef.GPUDevice(1) {
		t.Fatalf("GPU1 mapping after migration = %+v", pte)
	}
}

func TestInPTEDirectoryTargetsOnlyHolders(t *testing.T) {
	e, d, fakes, st := rig(t, config.OnlyInPTE())
	d.FarFault(0, 9, false)
	e.Run()
	d.FarFault(1, 9, false)
	e.Run()
	d.RequestMigration(1, 9)
	e.Run()
	// Only GPUs 0 and 1 ever touched the page; GPUs 2 and 3 stay quiet.
	if len(fakes[2].invals) != 0 || len(fakes[3].invals) != 0 {
		t.Fatalf("untouched GPUs invalidated: %v %v", fakes[2].invals, fakes[3].invals)
	}
	if len(fakes[0].invals) != 1 || len(fakes[1].invals) != 1 {
		t.Fatalf("holders not invalidated: %v %v", fakes[0].invals, fakes[1].invals)
	}
	if st.DirectoryFiltered != 2 {
		t.Fatalf("filtered = %d, want 2", st.DirectoryFiltered)
	}
}

func TestMigrationWaitsForAcks(t *testing.T) {
	e, d, fakes, st := rig(t, config.Baseline())
	for i := range fakes {
		fakes[i].ackDelay = 5000 // slow invalidation walks
	}
	d.FarFault(0, 3, false)
	e.Run()
	d.FarFault(1, 3, false)
	e.Run()
	d.RequestMigration(1, 3)
	e.Run()
	// Wait must include the 5000-cycle GPU-side ack delay.
	if st.MigrationWait.Max < 5000 {
		t.Fatalf("migration wait %d did not include slow acks", st.MigrationWait.Max)
	}
}

func TestZeroLatencyDoesNotWaitForAcks(t *testing.T) {
	e, d, fakes, st := rig(t, config.ZeroLatency())
	for i := range fakes {
		fakes[i].ackDelay = 5000
	}
	d.FarFault(0, 3, false)
	e.Run()
	d.FarFault(1, 3, false)
	e.Run()
	d.RequestMigration(1, 3)
	e.Run()
	if st.MigrationWait.Max >= 5000 {
		t.Fatalf("zero-latency migration waited %d for acks", st.MigrationWait.Max)
	}
	// Requests are still broadcast for interconnect fidelity.
	total := 0
	for _, f := range fakes {
		total += len(f.invals)
	}
	if total != 4 {
		t.Fatalf("broadcast count = %d, want 4", total)
	}
}

func TestDuplicateMigrationRequestIgnored(t *testing.T) {
	e, d, _, st := rig(t, config.Baseline())
	d.FarFault(0, 5, false)
	e.Run()
	d.FarFault(1, 5, false)
	e.Run()
	d.RequestMigration(1, 5)
	d.RequestMigration(1, 5) // second request while first in flight
	e.Run()
	if st.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", st.Migrations)
	}
	if st.MigrationRequests != 2 {
		t.Fatalf("requests = %d, want 2", st.MigrationRequests)
	}
}

func TestMigrationToCurrentOwnerIgnored(t *testing.T) {
	e, d, _, st := rig(t, config.Baseline())
	d.FarFault(0, 5, false)
	e.Run()
	d.RequestMigration(0, 5)
	e.Run()
	if st.Migrations != 0 {
		t.Fatalf("migrated a page to its own owner")
	}
}

func TestFaultDuringMigrationDeferredAndReplayed(t *testing.T) {
	e, d, fakes, _ := rig(t, config.Baseline())
	for i := range fakes {
		fakes[i].ackDelay = 3000
	}
	d.FarFault(0, 11, false)
	e.Run()
	d.FarFault(1, 11, false)
	e.Run()
	d.RequestMigration(1, 11)
	// GPU3 faults while the migration is in flight.
	e.Schedule(100, func() { d.FarFault(3, 11, false) })
	e.Run()
	pte, ok := fakes[3].mappings[11]
	if !ok {
		t.Fatal("deferred fault never replayed")
	}
	if pte.PFN.Device() != memdef.GPUDevice(1) {
		t.Fatalf("replayed mapping points at %v, want new owner GPU1", pte.PFN.Device())
	}
}

func TestOnTouchMigratesOnFault(t *testing.T) {
	e, d, _, st := rig(t, config.OnTouchScheme())
	d.FarFault(0, 21, false)
	e.Run()
	d.FarFault(2, 21, false) // on-touch: this fault migrates the page
	e.Run()
	if st.Migrations != 1 {
		t.Fatalf("on-touch migrations = %d, want 1", st.Migrations)
	}
	if owner, _ := d.Owner(21); owner != memdef.GPUDevice(2) {
		t.Fatalf("owner = %v, want GPU2", owner)
	}
}

func TestReplicationReadMakesLocalReplica(t *testing.T) {
	e, d, fakes, st := rig(t, config.ReplicationScheme())
	d.FarFault(0, 31, false)
	e.Run()
	d.FarFault(1, 31, false) // read → replica
	e.Run()
	pte := fakes[1].mappings[31]
	if pte.PFN.Device() != memdef.GPUDevice(1) {
		t.Fatalf("replica not local: %v", pte.PFN.Device())
	}
	if pte.Writable {
		t.Fatal("replica must be read-only")
	}
	if st.Replications != 1 {
		t.Fatalf("replications = %d", st.Replications)
	}
	// Owner was downgraded to read-only.
	if owner := fakes[0].mappings[31]; owner.Writable {
		t.Fatal("owner still writable after replication")
	}
	if d.ReplicaCount(31) != 1 {
		t.Fatalf("replica count = %d", d.ReplicaCount(31))
	}
}

func TestReplicationWriteCollapses(t *testing.T) {
	e, d, fakes, st := rig(t, config.ReplicationScheme())
	d.FarFault(0, 31, false)
	e.Run()
	d.FarFault(1, 31, false) // replica on GPU1
	e.Run()
	d.FarFault(2, 31, true) // write from GPU2 → collapse
	e.Run()
	if st.WriteCollapses == 0 {
		t.Fatal("write did not collapse replicas")
	}
	if owner, _ := d.Owner(31); owner != memdef.GPUDevice(2) {
		t.Fatalf("owner after collapse = %v, want writer GPU2", owner)
	}
	pte := fakes[2].mappings[31]
	if !pte.Writable || pte.PFN.Device() != memdef.GPUDevice(2) {
		t.Fatalf("writer mapping = %+v", pte)
	}
	if d.ReplicaCount(31) != 0 {
		t.Fatal("replicas survive collapse")
	}
}

func TestTransFWSchemePushesPRTInserts(t *testing.T) {
	e, d, fakes, _ := rig(t, config.TransFWScheme())
	d.FarFault(0, 41, false)
	e.Run()
	// Every other GPU learns that GPU0 holds vpn 41.
	for i := 1; i < 4; i++ {
		if len(fakes[i].prt) != 1 || fakes[i].prt[0] != 41 {
			t.Fatalf("GPU%d PRT inserts = %v", i, fakes[i].prt)
		}
	}
	if len(fakes[0].prt) != 0 {
		t.Fatal("holder received its own PRT insert")
	}
}

func TestBlockMigrationMovesWholeRegion(t *testing.T) {
	cl := pdes.NewCluster(1, 1)
	dom := cl.Domain(0)
	e := dom.Engine()
	m := config.Default()
	m.MigrationBlockPages = 4
	st := new(stats.Sim)
	net := interconnect.NewNetwork(cl, interconnect.Config{
		NumGPUs: m.NumGPUs, NVLinkBytesPerCycle: 300, NVLinkLatency: 100,
		PCIeBytesPerCycle: 32, PCIeLatency: 300,
	})
	d := New(dom, m, config.Baseline(), net, st)
	fakes := make([]*fakeGPU, m.NumGPUs)
	ports := make([]GPUPort, m.NumGPUs)
	for i := range fakes {
		fakes[i] = newFakeGPU(e, 10)
		ports[i] = fakes[i]
	}
	d.AttachGPUs(ports)
	// Pre-place pages 0..3 on GPU0, then GPU1 requests page 1's migration.
	for p := memdef.VPN(0); p < 4; p++ {
		fakes[0].mappings[p] = d.Preinstall(p, 0)
	}
	d.RequestMigration(1, 1)
	e.Run()
	for p := memdef.VPN(0); p < 4; p++ {
		if owner, _ := d.Owner(p); owner != memdef.GPUDevice(1) {
			t.Fatalf("block page %d not migrated (owner %v)", p, owner)
		}
	}
	if st.Migrations != 4 {
		t.Fatalf("migrations = %d, want 4 (whole block)", st.Migrations)
	}
}

func TestPreinstall(t *testing.T) {
	_, d, _, _ := rig(t, config.Baseline())
	pte := d.Preinstall(77, 3)
	if !pte.Valid || pte.PFN.Device() != memdef.GPUDevice(3) {
		t.Fatalf("preinstalled PTE = %+v", pte)
	}
	if owner, ok := d.Owner(77); !ok || owner != memdef.GPUDevice(3) {
		t.Fatalf("owner = %v,%v", owner, ok)
	}
}
