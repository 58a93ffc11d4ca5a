package driver

import (
	"strings"
	"testing"

	"idyll/internal/config"
	"idyll/internal/interconnect"
	"idyll/internal/memdef"
	"idyll/internal/pagetable"
	"idyll/internal/sim"
	"idyll/internal/sim/pdes"
	"idyll/internal/stats"
)

// ackGPU acks every invalidation after a fixed delay on its own domain's
// engine and records only the last mapping it received, so it allocates
// nothing per message.
type ackGPU struct {
	engine *sim.Engine
	last   pagetable.PTE
	maps   int
}

func (g *ackGPU) ReceiveInvalidation(_ memdef.VPN, ack func())   { g.engine.Schedule(50, ack) }
func (g *ackGPU) ReceiveMapping(_ memdef.VPN, pte pagetable.PTE) { g.last, g.maps = pte, g.maps+1 }
func (g *ackGPU) ReceivePRTInsert(memdef.VPN, int)               {}

// domainRig builds a driver with ackGPUs on a cluster of one domain (every
// component shares it) or of one domain per GPU plus the host's, the
// layout system.New uses.
func domainRig(t testing.TB, scheme config.Scheme, multi bool) (*pdes.Cluster, *Driver, []*ackGPU) {
	t.Helper()
	m := config.Default()
	m.MigrationBlockPages = 1
	n, lookahead := 1, sim.VTime(1)
	if multi {
		n, lookahead = m.NumGPUs+1, min(m.NVLinkLatency, m.PCIeLatency)+1
	}
	cl := pdes.NewCluster(n, lookahead)
	net := interconnect.NewNetwork(cl, interconnect.Config{
		NumGPUs:             m.NumGPUs,
		NVLinkBytesPerCycle: m.NVLinkBytesPerCycle,
		NVLinkLatency:       m.NVLinkLatency,
		PCIeBytesPerCycle:   m.PCIeBytesPerCycle,
		PCIeLatency:         m.PCIeLatency,
	})
	d := New(cl.Domain(n-1), m, scheme, net, new(stats.Sim))
	gpus := make([]*ackGPU, m.NumGPUs)
	ports := make([]GPUPort, m.NumGPUs)
	for i := range gpus {
		dom := cl.Domain(0)
		if multi {
			dom = cl.Domain(i)
		}
		gpus[i] = &ackGPU{engine: dom.Engine()}
		ports[i] = gpus[i]
	}
	d.AttachGPUs(ports)
	return cl, d, gpus
}

// TestMigrationRoundAllocatesNothing: once the pools are warm, a whole
// migration round — request, invalidations and their acks, host walk,
// GPU→GPU transfer, remap and the mapping reply — allocates nothing, for
// each directory kind (broadcast, in-PTE, VM-Table). So does a far fault
// served alongside it: batch, host walk, remote mapping and its reply.
func TestMigrationRoundAllocatesNothing(t *testing.T) {
	for _, scheme := range []config.Scheme{config.Baseline(), config.IDYLL(), config.IDYLLInMem()} {
		t.Run(scheme.Name, func(t *testing.T) {
			cl, d, gpus := domainRig(t, scheme, false)
			const vpn, remote = 42, 43
			d.Preinstall(vpn, 0)
			d.Preinstall(remote, 3)
			to := 1
			round := func() {
				d.RequestMigration(to, vpn)
				d.FarFault(2, remote, false)
				cl.Run()
				to = 1 - to
			}
			for i := 0; i < 4; i++ {
				round() // warm the pools and the tables
			}
			if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
				t.Fatalf("migration round allocates %v times", allocs)
			}
			if owner, _ := d.Owner(vpn); owner != memdef.GPUDevice(1-to) {
				t.Fatalf("page on %v after the last round, want GPU%d", owner, 1-to)
			}
			if gpus[1-to].last.PFN.Device() != memdef.GPUDevice(1-to) || d.Migrating(vpn) {
				t.Fatal("the last round did not remap the page onto its new owner")
			}
			if gpus[2].last.PFN.Device() != memdef.GPUDevice(3) {
				t.Fatal("the far fault did not get its remote mapping")
			}
		})
	}
}

// TestReplyInstallPrecedesRetire pins the reply record's free rule: the
// GPU installs the mapping before the host retires (and recycles) the
// record, in both domain layouts, and a retire that comes first panics.
func TestReplyInstallPrecedesRetire(t *testing.T) {
	for _, multi := range []bool{false, true} {
		cl, d, gpus := domainRig(t, config.Baseline(), multi)
		d.Preinstall(7, 0)
		d.RequestMigration(2, 7)
		cl.Run()
		if gpus[2].maps != 1 || len(d.replyFree) != 1 || d.repliesInFlight.Len() != 0 {
			t.Fatalf("multi=%v: maps=%d free replies=%d in flight=%d", multi,
				gpus[2].maps, len(d.replyFree), d.repliesInFlight.Len())
		}
	}

	_, d, _ := domainRig(t, config.Baseline(), false)
	x := &reply{d: d, gpu: 0, vpn: 7}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "before the GPU installed") {
			t.Fatalf("retire before install: recovered %v, want the free-rule panic", r)
		}
	}()
	x.retireAtHost()
}
