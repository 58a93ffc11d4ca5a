// Package interconnect models the multi-GPU system's links: an all-to-all
// NVLink-v2 fabric between GPUs (300 GB/s per directed link) and a PCIe-v4
// connection from each GPU to the CPU/UVM driver (32 GB/s), per Table 2.
//
// Each directed link serializes messages at its bandwidth (bytes per cycle
// of the 1 GHz clock: 300 B/cy for NVLink, 32 B/cy for PCIe) and then adds a
// fixed propagation latency. Contention therefore appears as serialization
// queueing — the effect behind the paper's observation that broadcasting
// invalidations congests the interconnect even when they cost zero cycles on
// the GPUs (§7.1).
//
// Links are the system's synchronization-domain boundaries: a directed link
// is owned by its sender's pdes.Domain (its serialization state is read and
// advanced only there), and a message's arrival closure is posted to the
// receiver's domain with the full wire latency. Because every link's
// propagation is at least the cluster lookahead minus the one guaranteed
// serialization cycle, link traffic can never deliver inside the sender's
// current window — the property the cluster's conservative windows rest on
// (see internal/sim/pdes).
package interconnect

import (
	"fmt"

	"idyll/internal/sim"
	"idyll/internal/sim/pdes"
)

// Link is a single directed channel. It must be used only from its owning
// domain's events.
type Link struct {
	owner         *pdes.Domain
	dst           pdes.DomainID
	bytesPerCycle float64
	propagation   sim.VTime
	nextFree      sim.VTime
	bytesSent     uint64
}

// NewLink builds a directed link with the given bandwidth (bytes per cycle)
// and propagation delay (cycles), owned by the sender's domain and
// delivering into dst. In a multi-domain cluster the propagation plus the
// guaranteed serialization cycle must cover the cluster lookahead; a link
// fast enough to deliver inside a window is a configuration error caught
// here, at build time, rather than as a mid-run conservatism panic.
func NewLink(owner *pdes.Domain, dst pdes.DomainID, bytesPerCycle float64, propagation sim.VTime) *Link {
	if bytesPerCycle <= 0 {
		panic("interconnect: non-positive bandwidth")
	}
	if cl := owner.Cluster(); cl.NumDomains() > 1 && owner.ID() != dst &&
		propagation+1 < cl.Lookahead() {
		panic(fmt.Sprintf(
			"interconnect: link propagation %d cannot cover cluster lookahead %d",
			propagation, cl.Lookahead()))
	}
	return &Link{owner: owner, dst: dst, bytesPerCycle: bytesPerCycle, propagation: propagation}
}

// Send transmits a message of the given size. When the last byte arrives at
// the far end, deliver (if non-nil) runs in the receiver's domain and local
// (if non-nil) runs in the sender's domain — both at the same arrival
// cycle. Messages on one link are serialized in send order. Senders that
// need receiver-side state pass deliver; senders that continue their own
// protocol once the wire is known to have delivered pass local, which stays
// domain-internal and costs no cross-domain traffic.
func (l *Link) Send(bytes int, deliver, local func()) {
	if bytes <= 0 {
		bytes = 1
	}
	now := l.owner.Now()
	start := now
	if l.nextFree > start {
		start = l.nextFree
	}
	ser := sim.VTime(float64(bytes)/l.bytesPerCycle + 0.999999)
	if ser < 1 {
		ser = 1
	}
	l.nextFree = start + ser
	l.bytesSent += uint64(bytes)
	at := l.nextFree + l.propagation
	if deliver != nil {
		l.owner.Post(l.dst, at, deliver)
	}
	if local != nil {
		l.owner.ScheduleAt(at, local)
	}
}

// Bytes reports the bytes sent on this link.
func (l *Link) Bytes() uint64 { return l.bytesSent }

// Network is the system fabric: directed GPU↔GPU links and directed
// GPU↔CPU links. Each link lives in its sender's domain; the Network struct
// itself is immutable after construction and safe to reference from any
// domain.
type Network struct {
	numGPUs int
	gpuGPU  [][]*Link // [from][to], nil on the diagonal
	gpuCPU  []*Link   // GPU → CPU
	cpuGPU  []*Link   // CPU → GPU
}

// Config sets link parameters for a Network.
type Config struct {
	NumGPUs int
	// NVLinkBytesPerCycle is the inter-GPU bandwidth (Table 2: 300 GB/s at
	// 1 GHz = 300 bytes/cycle).
	NVLinkBytesPerCycle float64
	// NVLinkLatency is the propagation delay between GPUs.
	NVLinkLatency sim.VTime
	// PCIeBytesPerCycle is the CPU↔GPU bandwidth (Table 2: 32 GB/s = 32 B/cy).
	PCIeBytesPerCycle float64
	// PCIeLatency is the propagation delay between a GPU and the CPU.
	PCIeLatency sim.VTime
}

// NewNetwork builds the all-to-all fabric on the cluster's domains. The
// cluster carries either one domain (everything shares one engine — the
// degenerate layout zero-latency idealizations require) or NumGPUs+1
// domains: one per GPU, in GPU order, plus the host domain last.
func NewNetwork(cl *pdes.Cluster, cfg Config) *Network {
	if cl.NumDomains() != 1 && cl.NumDomains() != cfg.NumGPUs+1 {
		panic(fmt.Sprintf("interconnect: cluster has %d domains for %d GPUs; want 1 or %d",
			cl.NumDomains(), cfg.NumGPUs, cfg.NumGPUs+1))
	}
	gpuDom := func(i int) pdes.DomainID {
		if cl.NumDomains() == 1 {
			return 0
		}
		return pdes.DomainID(i)
	}
	hostDom := pdes.DomainID(0)
	if cl.NumDomains() > 1 {
		hostDom = pdes.DomainID(cfg.NumGPUs)
	}
	n := &Network{
		numGPUs: cfg.NumGPUs,
		gpuGPU:  make([][]*Link, cfg.NumGPUs),
		gpuCPU:  make([]*Link, cfg.NumGPUs),
		cpuGPU:  make([]*Link, cfg.NumGPUs),
	}
	for i := 0; i < cfg.NumGPUs; i++ {
		n.gpuGPU[i] = make([]*Link, cfg.NumGPUs)
		for j := 0; j < cfg.NumGPUs; j++ {
			if i != j {
				n.gpuGPU[i][j] = NewLink(cl.Domain(int(gpuDom(i))), gpuDom(j),
					cfg.NVLinkBytesPerCycle, cfg.NVLinkLatency)
			}
		}
		n.gpuCPU[i] = NewLink(cl.Domain(int(gpuDom(i))), hostDom,
			cfg.PCIeBytesPerCycle, cfg.PCIeLatency)
		n.cpuGPU[i] = NewLink(cl.Domain(int(hostDom)), gpuDom(i),
			cfg.PCIeBytesPerCycle, cfg.PCIeLatency)
	}
	return n
}

// NumGPUs reports the number of GPUs on the fabric.
func (n *Network) NumGPUs() int { return n.numGPUs }

// GPUToGPU sends a message between two distinct GPUs; call only from the
// sending GPU's domain. deliver runs in the receiving GPU's domain, local
// in the sender's (either may be nil).
func (n *Network) GPUToGPU(from, to, bytes int, deliver, local func()) {
	if from == to {
		panic("interconnect: GPU self-send")
	}
	n.gpuGPU[from][to].Send(bytes, deliver, local)
}

// GPUToCPU sends a message from a GPU to the host; call only from the GPU's
// domain. deliver runs in the host domain, local in the GPU's.
func (n *Network) GPUToCPU(gpu, bytes int, deliver, local func()) {
	n.gpuCPU[gpu].Send(bytes, deliver, local)
}

// CPUToGPU sends a message from the host to a GPU; call only from the host
// domain. deliver runs in the GPU's domain, local in the host's.
func (n *Network) CPUToGPU(gpu, bytes int, deliver, local func()) {
	n.cpuGPU[gpu].Send(bytes, deliver, local)
}

// TotalBytes reports bytes carried on the NVLink fabric and the PCIe links.
// Call only after the run completes (it reads every domain's links).
func (n *Network) TotalBytes() (nvlink, pcie uint64) {
	for i := 0; i < n.numGPUs; i++ {
		for j := 0; j < n.numGPUs; j++ {
			if l := n.gpuGPU[i][j]; l != nil {
				nvlink += l.Bytes()
			}
		}
		pcie += n.gpuCPU[i].Bytes() + n.cpuGPU[i].Bytes()
	}
	return
}
