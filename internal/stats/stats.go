// Package stats collects the measurements every experiment in the paper is
// built from: latency distributions for demand TLB misses, invalidations and
// migrations, and request-mix counters at the page walker. A Sim holds no
// pointers; its zero value is an empty measurement set ready to use.
package stats

import (
	"fmt"
	"math"
	"math/bits"

	"idyll/internal/sim"
)

// latencyBuckets is the number of power-of-two histogram buckets a Latency
// keeps; samples of 2^39 cycles and more share the last one.
const latencyBuckets = 40

// Latency accumulates a latency distribution: count, sum, max, and a
// power-of-two histogram for percentiles (the paper's figures report means;
// the tail of demand-miss latency under invalidation bursts is where the
// contention actually lives). The zero value is empty and ready to use.
type Latency struct {
	Count uint64
	Sum   sim.VTime
	Max   sim.VTime
	// buckets[i] counts the samples in [2^i, 2^(i+1)); bucket 0 also holds
	// the zero samples.
	buckets [latencyBuckets]uint64
}

// Add records one sample (negative samples are clamped to zero).
func (l *Latency) Add(v sim.VTime) {
	if v < 0 {
		v = 0
	}
	l.Count++
	l.Sum += v
	if v > l.Max {
		l.Max = v
	}
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v)) - 1 // floor(log2 v)
	}
	l.buckets[min(b, latencyBuckets-1)]++
}

// Mean reports the average sample, or 0 with no samples.
func (l *Latency) Mean() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.Sum) / float64(l.Count)
}

// Percentile reports an upper bound for the p-th percentile (0 < p <= 100):
// the upper edge of the bucket containing that rank, capped at Max.
// Bucketed storage makes this approximate within a factor of two, which is
// enough to compare schemes' tails.
func (l *Latency) Percentile(p float64) sim.VTime {
	if l.Count == 0 {
		return 0
	}
	if p <= 0 {
		p = 1e-9
	}
	if p > 100 {
		p = 100
	}
	rank := uint64(math.Ceil(p / 100 * float64(l.Count)))
	var seen uint64
	for i, n := range l.buckets {
		seen += n
		if seen >= rank {
			upper := sim.VTime(1) << uint(i+1)
			if upper > l.Max && l.Max > 0 {
				return l.Max
			}
			return upper
		}
	}
	return l.Max
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
}

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
