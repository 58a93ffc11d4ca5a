package interconnect

import (
	"testing"

	"idyll/internal/sim"
	"idyll/internal/sim/pdes"
)

// testDomain builds a single-domain cluster, where links degenerate to plain
// engine scheduling — the pre-parallel semantics every timing test asserts.
func testDomain() (*pdes.Domain, *sim.Engine) {
	cl := pdes.NewCluster(1, 1)
	d := cl.Domain(0)
	return d, d.Engine()
}

func TestLinkLatencyAndSerialization(t *testing.T) {
	d, e := testDomain()
	l := NewLink(d, 0, 300, 200) // NVLink-like: 300 B/cy, 200 cy propagation
	var arrive sim.VTime
	l.Send(4096, func() { arrive = e.Now() }, nil) // 4 KB page: ceil(4096/300)=14 cy
	e.Run()
	if arrive != 14+200 {
		t.Fatalf("page arrived at %d, want 214", arrive)
	}
}

func TestLinkBackToBackSerializes(t *testing.T) {
	d, e := testDomain()
	l := NewLink(d, 0, 32, 100) // PCIe-like
	var first, second sim.VTime
	l.Send(64, func() { first = e.Now() }, nil)  // ser 2 cy → arrives 102
	l.Send(64, func() { second = e.Now() }, nil) // starts at 2, ser 2 → arrives 104
	e.Run()
	if first != 102 || second != 104 {
		t.Fatalf("arrivals = %d,%d; want 102,104", first, second)
	}
}

func TestLinkFreesAfterIdle(t *testing.T) {
	d, e := testDomain()
	l := NewLink(d, 0, 64, 10)
	var second sim.VTime
	l.Send(64, func() {}, nil)
	e.Schedule(100, func() {
		l.Send(64, func() { second = e.Now() }, nil)
	})
	e.Run()
	// Second send starts fresh at t=100: 1 cycle ser + 10 propagation.
	if second != 111 {
		t.Fatalf("second arrival = %d, want 111", second)
	}
}

func TestLinkMinimumOneCycle(t *testing.T) {
	d, e := testDomain()
	l := NewLink(d, 0, 1000, 0)
	var at sim.VTime = -1
	l.Send(8, func() { at = e.Now() }, nil)
	e.Run()
	if at != 1 {
		t.Fatalf("tiny message arrived at %d, want 1", at)
	}
}

func TestLinkLocalContinuationFiresWithDelivery(t *testing.T) {
	d, e := testDomain()
	l := NewLink(d, 0, 300, 200)
	var deliverAt, localAt sim.VTime
	l.Send(4096, func() { deliverAt = e.Now() }, func() { localAt = e.Now() })
	e.Run()
	// The sender-side continuation models "the transfer is done" from the
	// source's clock; it carries the same latency as the delivery.
	if deliverAt != 214 || localAt != 214 {
		t.Fatalf("deliver=%d local=%d, want both 214", deliverAt, localAt)
	}
}

func TestLinkRejectsSubLookaheadCrossDomain(t *testing.T) {
	cl := pdes.NewCluster(2, 50)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-domain link faster than the lookahead did not panic")
		}
	}()
	// propagation 10 + 1 serialization cycle < lookahead 50: messages could
	// land inside a window, so construction must refuse.
	NewLink(cl.Domain(0), 1, 300, 10)
}

func TestLinkStats(t *testing.T) {
	d, e := testDomain()
	l := NewLink(d, 0, 100, 5)
	l.Send(100, func() {}, nil)
	l.Send(300, func() {}, nil)
	e.Run()
	if b := l.Bytes(); b != 400 {
		t.Fatalf("bytes = %d, want 400", b)
	}
}

func TestNetworkTopology(t *testing.T) {
	cl := pdes.NewCluster(1, 1)
	e := cl.Domain(0).Engine()
	n := NewNetwork(cl, Config{
		NumGPUs:             4,
		NVLinkBytesPerCycle: 300, NVLinkLatency: 200,
		PCIeBytesPerCycle: 32, PCIeLatency: 600,
	})
	if n.NumGPUs() != 4 {
		t.Fatal("wrong GPU count")
	}
	var viaNVLink, viaPCIe sim.VTime
	n.GPUToGPU(0, 3, 64, func() { viaNVLink = e.Now() }, nil)
	n.GPUToCPU(2, 64, func() { viaPCIe = e.Now() }, nil)
	e.Run()
	if viaNVLink != 201 {
		t.Fatalf("NVLink control msg at %d, want 201", viaNVLink)
	}
	if viaPCIe != 602 {
		t.Fatalf("PCIe control msg at %d, want 602", viaPCIe)
	}
}

func TestNetworkLinksAreIndependent(t *testing.T) {
	cl := pdes.NewCluster(1, 1)
	e := cl.Domain(0).Engine()
	n := NewNetwork(cl, Config{
		NumGPUs:             2,
		NVLinkBytesPerCycle: 1, NVLinkLatency: 0,
		PCIeBytesPerCycle: 1, PCIeLatency: 0,
	})
	var a, b sim.VTime
	// Opposite directions must not serialize against each other.
	n.GPUToGPU(0, 1, 10, func() { a = e.Now() }, nil)
	n.GPUToGPU(1, 0, 10, func() { b = e.Now() }, nil)
	e.Run()
	if a != 10 || b != 10 {
		t.Fatalf("duplex arrivals = %d,%d; want 10,10", a, b)
	}
}

func TestNetworkSelfSendPanics(t *testing.T) {
	cl := pdes.NewCluster(1, 1)
	n := NewNetwork(cl, Config{NumGPUs: 2, NVLinkBytesPerCycle: 1, PCIeBytesPerCycle: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("self-send did not panic")
		}
	}()
	n.GPUToGPU(1, 1, 8, func() {}, nil)
}

func TestNetworkRejectsBadDomainLayout(t *testing.T) {
	cl := pdes.NewCluster(3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched domain layout did not panic")
		}
	}()
	// 4 GPUs need 1 or 5 domains; a 3-domain cluster fits neither layout.
	NewNetwork(cl, Config{NumGPUs: 4, NVLinkBytesPerCycle: 1, PCIeBytesPerCycle: 1})
}

func TestNetworkByteAccounting(t *testing.T) {
	cl := pdes.NewCluster(1, 1)
	e := cl.Domain(0).Engine()
	n := NewNetwork(cl, Config{NumGPUs: 2, NVLinkBytesPerCycle: 10, PCIeBytesPerCycle: 10})
	n.GPUToGPU(0, 1, 4096, func() {}, nil)
	n.GPUToCPU(0, 64, func() {}, nil)
	n.CPUToGPU(1, 64, func() {}, nil)
	e.Run()
	nv, pcie := n.TotalBytes()
	if nv != 4096 || pcie != 128 {
		t.Fatalf("nvlink=%d pcie=%d", nv, pcie)
	}
}

func TestNetworkMultiDomainTimingMatchesSingle(t *testing.T) {
	// The same sends, once on a single shared domain and once on the per-GPU
	// layout under the cluster's serial executor, must deliver at identical
	// cycles.
	run := func(domains int) (a, b sim.VTime) {
		lookahead := sim.VTime(1)
		if domains > 1 {
			lookahead = 201 // min(NVLink prop 200, PCIe prop 600) + 1
		}
		cl := pdes.NewCluster(domains, lookahead)
		n := NewNetwork(cl, Config{
			NumGPUs:             2,
			NVLinkBytesPerCycle: 300, NVLinkLatency: 200,
			PCIeBytesPerCycle: 32, PCIeLatency: 600,
		})
		gpuDom := func(i int) *pdes.Domain {
			if cl.NumDomains() == 1 {
				return cl.Domain(0)
			}
			return cl.Domain(i)
		}
		host := cl.Domain(cl.NumDomains() - 1)
		gpuDom(0).ScheduleAt(0, func() {
			n.GPUToGPU(0, 1, 4096, nil, nil)
			n.GPUToCPU(0, 64, func() { a = host.Now() }, nil)
		})
		host.ScheduleAt(10, func() {
			n.CPUToGPU(1, 64, func() { b = gpuDom(1).Now() }, nil)
		})
		cl.Run()
		return a, b
	}
	a1, b1 := run(1)
	a3, b3 := run(3)
	if a1 != a3 || b1 != b3 {
		t.Fatalf("timing differs across layouts: single=(%d,%d) multi=(%d,%d)", a1, b1, a3, b3)
	}
	if a1 != 602 || b1 != 612 {
		t.Fatalf("arrivals = %d,%d; want 602,612", a1, b1)
	}
}
