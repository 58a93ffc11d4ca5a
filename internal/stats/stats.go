// Package stats collects the measurements every experiment in the paper is
// built from: latency accumulators for demand TLB misses, invalidations and
// migrations; request-mix counters at the page walker; and the page-sharing
// tracker behind Figure 4.
package stats

import (
	"fmt"
	"math/bits"
	"sort"

	"idyll/internal/memdef"
	"idyll/internal/sim"
)

// Latency accumulates a latency distribution: count, sum, and max.
type Latency struct {
	Count uint64
	Sum   sim.VTime
	Max   sim.VTime
}

// Add records one sample.
func (l *Latency) Add(v sim.VTime) {
	l.Count++
	l.Sum += v
	if v > l.Max {
		l.Max = v
	}
}

// Mean reports the average sample, or 0 with no samples.
func (l *Latency) Mean() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.Sum) / float64(l.Count)
}

// Sim is the full set of measurements for one simulation run.
type Sim struct {
	// ExecCycles is the end-to-end execution time: the cycle at which the
	// last compute unit retired its last access.
	ExecCycles sim.VTime
	// Instructions is the modelled dynamic instruction count, used for MPKI.
	Instructions uint64
	// Accesses is the number of memory accesses issued.
	Accesses uint64

	// Translation path.
	L1TLBLookups, L1TLBHits uint64
	L2TLBLookups, L2TLBHits uint64
	// DemandMiss is the latency of demand TLB-miss requests: from missing
	// the L2 TLB to the translation becoming available (§5.2 definition).
	DemandMiss Latency
	FarFaults  uint64
	// MSHRMerges counts requests coalesced onto an in-flight miss.
	MSHRMerges uint64

	// Page walker request mix (Figure 5).
	WalkerDemand      uint64
	WalkerInval       uint64
	WalkerUpdate      uint64
	InvalNecessary    uint64
	InvalUnnecessary  uint64
	PWCLookups        uint64
	PWCHits           uint64
	WalkQueueRejects  uint64
	WalkerLevelVisits uint64

	// Invalidation handling (Figure 13): latency from a GPU receiving an
	// invalidation request to its PTE actually being invalidated (or the
	// request being absorbed by the IRMB and later written back).
	InvalReceived uint64
	Inval         Latency
	// InvalBusy is walker-cycles spent performing invalidation walks.
	InvalBusy sim.VTime

	// Migration (Figures 7 and 14).
	MigrationRequests uint64
	Migrations        uint64
	// MigrationWait is request→data-transfer-start (waiting latency, §5.2).
	MigrationWait Latency
	// MigrationTotal is request→completion (new mapping established).
	MigrationTotal Latency

	// Data path.
	LocalAccesses  uint64
	RemoteAccesses uint64
	L1DLookups     uint64
	L1DHits        uint64
	L2DLookups     uint64
	L2DHits        uint64

	// IDYLL mechanisms.
	IRMBInserts    uint64
	IRMBMergeHits  uint64
	IRMBEvictions  uint64
	IRMBLookups    uint64
	IRMBLookupHits uint64
	IRMBWritebacks uint64
	IRMBDrains     uint64
	// DirectoryTargeted counts invalidations actually sent; DirectoryFiltered
	// counts invalidations the directory suppressed vs. a broadcast.
	DirectoryTargeted uint64
	DirectoryFiltered uint64
	VMCacheLookups    uint64
	VMCacheHits       uint64

	// Trans-FW.
	PRTLookups        uint64
	PRTHits           uint64
	PRTFalsePositives uint64

	// Replication.
	Replications   uint64
	WriteCollapses uint64

	// Interconnect.
	NVLinkBytes uint64
	PCIeBytes   uint64

	// Event-engine internals (sim.EngineStats, copied at end of run): how
	// many events fired, how schedules split between the O(1) bucket ring
	// and the far-future heap, heap→ring migrations, and event-node pool
	// traffic. These quantify the simulator's own hot path, not the modelled
	// hardware.
	EngineEvents        uint64
	EngineRingScheduled uint64
	EngineFarScheduled  uint64
	EngineMigrated      uint64
	// EngineCancelled always reads 0: scheduled events cannot be cancelled.
	// The field stays for the benchmark harness, which reads it.
	EngineCancelled uint64
	EnginePoolHits  uint64

	// DemandMissHist and InvalHist capture the full latency distributions
	// behind DemandMiss and Inval, for percentile reporting.
	DemandMissHist *Histogram
	InvalHist      *Histogram

	sharing *Sharing
}

// NewSim returns a zeroed measurement set with a sharing tracker attached.
func NewSim() *Sim {
	return &Sim{
		sharing:        NewSharing(),
		DemandMissHist: NewHistogram(),
		InvalHist:      NewHistogram(),
	}
}

// Sharing exposes the run's page-sharing tracker.
func (s *Sim) Sharing() *Sharing { return s.sharing }

// MPKI reports L2 TLB misses per kilo-instruction (Table 3's metric).
func (s *Sim) MPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.L2TLBLookups-s.L2TLBHits) / float64(s.Instructions) * 1000
}

// EngineBucketFraction reports the share of schedules served by the bucket
// ring's O(1) path rather than the heap.
func (s *Sim) EngineBucketFraction() float64 {
	total := s.EngineRingScheduled + s.EngineFarScheduled
	if total == 0 {
		return 0
	}
	return float64(s.EngineRingScheduled) / float64(total)
}

// Speedup reports base-exec-time / this-exec-time: >1 means faster than base.
func (s *Sim) Speedup(base *Sim) float64 {
	if s.ExecCycles == 0 {
		return 0
	}
	return float64(base.ExecCycles) / float64(s.ExecCycles)
}

// UnnecessaryInvalFraction reports the share of invalidation walks that
// found no valid PTE (Figure 5's "unnecessary" category).
func (s *Sim) UnnecessaryInvalFraction() float64 {
	total := s.InvalNecessary + s.InvalUnnecessary
	if total == 0 {
		return 0
	}
	return float64(s.InvalUnnecessary) / float64(total)
}

// Sharing tracks, per page, which GPUs accessed it and how many accesses it
// received — the data behind Figure 4's "distribution of accesses
// referencing shared pages".
type Sharing struct {
	pages map[memdef.VPN]pageShare
}

// pageShare is one page's sharing record.
type pageShare struct {
	accessors uint64 // bitmask of GPUs
	accesses  uint64
}

// NewSharing returns an empty tracker.
func NewSharing() *Sharing {
	return &Sharing{pages: make(map[memdef.VPN]pageShare)}
}

// Record notes one access to vpn by gpu.
func (sh *Sharing) Record(vpn memdef.VPN, gpu int) {
	p := sh.pages[vpn]
	p.accessors |= 1 << uint(gpu)
	p.accesses++
	sh.pages[vpn] = p
}

// Pages reports the number of distinct pages touched.
func (sh *Sharing) Pages() int { return len(sh.pages) }

// sortedVPNs returns the tracked pages in ascending VPN order. Every
// reducer below iterates this slice rather than the maps directly so that
// accumulation order — which matters for the float sums in
// AccessDistribution — is independent of Go's randomized map iteration.
func (sh *Sharing) sortedVPNs() []memdef.VPN {
	vpns := make([]memdef.VPN, 0, len(sh.pages))
	for vpn := range sh.pages {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	return vpns
}

// AccessDistribution returns, indexed by sharer count k (1-based up to
// maxGPUs), the fraction of all accesses that went to pages accessed by
// exactly k GPUs. Index 0 is unused.
func (sh *Sharing) AccessDistribution(maxGPUs int) []float64 {
	dist := make([]float64, maxGPUs+1)
	var total uint64
	for _, vpn := range sh.sortedVPNs() {
		p := sh.pages[vpn]
		k := bits.OnesCount64(p.accessors)
		if k > maxGPUs {
			k = maxGPUs
		}
		n := p.accesses
		dist[k] += float64(n)
		total += n
	}
	if total > 0 {
		for i := range dist {
			dist[i] /= float64(total)
		}
	}
	return dist
}

// SharedAccessRatio reports the paper's "page access sharing ratio": shared
// page accesses / total accesses, where a shared page is one accessed by
// more than one GPU (§5.1).
func (sh *Sharing) SharedAccessRatio() float64 {
	var shared, total uint64
	for _, vpn := range sh.sortedVPNs() {
		p := sh.pages[vpn]
		n := p.accesses
		total += n
		if bits.OnesCount64(p.accessors) > 1 {
			shared += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(shared) / float64(total)
}

// HottestPages returns the n most-accessed pages, hottest first.
func (sh *Sharing) HottestPages(n int) []memdef.VPN {
	type pc struct {
		vpn memdef.VPN
		n   uint64
	}
	all := make([]pc, 0, len(sh.pages))
	for vpn, p := range sh.pages {
		all = append(all, pc{vpn, p.accesses})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].vpn < all[j].vpn
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]memdef.VPN, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].vpn
	}
	return out
}

// Summary renders the headline numbers of a run for CLI output.
func (s *Sim) Summary() string {
	return fmt.Sprintf(
		"exec=%d cycles, accesses=%d, L2TLB miss=%d (MPKI %.1f), far faults=%d, "+
			"migrations=%d, invals recv=%d (unnecessary %.0f%%), demand-miss mean=%.0f cy, "+
			"mig-wait mean=%.0f cy",
		s.ExecCycles, s.Accesses, s.L2TLBLookups-s.L2TLBHits, s.MPKI(), s.FarFaults,
		s.Migrations, s.InvalReceived, s.UnnecessaryInvalFraction()*100,
		s.DemandMiss.Mean(), s.MigrationWait.Mean())
}
