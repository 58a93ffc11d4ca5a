// Package config defines the simulated machine configuration (the paper's
// Table 2) and the scheme matrix evaluated in §7 — baseline, the IDYLL
// variants, the idealized zero-latency-invalidation system, the alternative
// migration policies, page replication, and Trans-FW.
package config

import (
	"fmt"

	"idyll/internal/core"
	"idyll/internal/memdef"
	"idyll/internal/sim"
)

// Machine is the hardware configuration (Table 2 defaults via Default).
type Machine struct {
	NumGPUs   int
	CUsPerGPU int
	// OutstandingPerCU is the number of memory accesses a CU keeps in
	// flight (warp-level parallelism available to hide latency).
	OutstandingPerCU int

	PageSize memdef.PageSize

	// TLBs.
	L1TLBEntries  int
	L1TLBLatency  sim.VTime
	L2TLBEntries  int
	L2TLBWays     int
	L2TLBLatency  sim.VTime
	L2MSHREntries int

	// GMMU.
	PTWThreads      int
	PTWLevelLatency sim.VTime
	PWCEntries      int
	PWCWays         int
	WalkQueueDepth  int

	// Host-side (UVM driver) translation resources. §7.1: host walks are
	// much faster than GPU walks (high bandwidth, fewer competing faults).
	HostWalkers       int
	HostLevelLatency  sim.VTime
	FaultBatchSize    int
	FaultBatchWindow  sim.VTime
	FaultFixedLatency sim.VTime

	// Migration. Access counters on NVIDIA GPUs track memory *regions*
	// rather than individual 4 KB pages, and the UVM driver migrates at
	// va_block granularity — so one counter trip moves a contiguous block
	// of pages and broadcasts one invalidation per page in it. This is also
	// the locality the IRMB exploits (§6.3: "pages being migrated are
	// nearby to each other in the address space").
	AccessCounterThreshold int
	MigrationBlockPages    int

	// Interconnect (Table 2: 300 GB/s NVLink-v2, 32 GB/s PCIe-v4; at the
	// 1 GHz CU clock that is 300 and 32 bytes per cycle).
	NVLinkBytesPerCycle float64
	NVLinkLatency       sim.VTime
	PCIeBytesPerCycle   float64
	PCIeLatency         sim.VTime

	// Data path.
	L1CacheBytes   int
	L1CacheWays    int
	L1CacheLatency sim.VTime
	L2CacheBytes   int
	L2CacheWays    int
	L2CacheLatency sim.VTime
	DRAMLatency    sim.VTime
}

// Default returns the Table 2 baseline: a 4-GPU system, 4 KB pages,
// counter threshold 256.
func Default() Machine {
	return Machine{
		NumGPUs:          4,
		CUsPerGPU:        64,
		OutstandingPerCU: 8,

		PageSize: memdef.Page4K,

		L1TLBEntries:  32,
		L1TLBLatency:  1,
		L2TLBEntries:  512,
		L2TLBWays:     16,
		L2TLBLatency:  10,
		L2MSHREntries: 128,

		PTWThreads:      8,
		PTWLevelLatency: 100,
		PWCEntries:      128,
		PWCWays:         8,
		WalkQueueDepth:  64,

		HostWalkers:       8,
		HostLevelLatency:  20,
		FaultBatchSize:    256,
		FaultBatchWindow:  200,
		FaultFixedLatency: 50,

		AccessCounterThreshold: 256,
		MigrationBlockPages:    16,

		NVLinkBytesPerCycle: 300,
		NVLinkLatency:       100,
		PCIeBytesPerCycle:   32,
		PCIeLatency:         300,

		L1CacheBytes:   16 << 10,
		L1CacheWays:    4,
		L1CacheLatency: 4,
		L2CacheBytes:   256 << 10,
		L2CacheWays:    16,
		L2CacheLatency: 30,
		DRAMLatency:    200,
	}
}

// MaxGPUs is the largest NumGPUs a machine may have. Per-page GPU sets are
// 64-bit masks, one bit per GPU: a trace's per-page accessor mask (Figure
// 4, workload.Sharing) and the invalidation directory's target mask.
const MaxGPUs = 64

// Validate reports configuration errors.
func (m Machine) Validate() error {
	switch {
	case m.NumGPUs < 1:
		return fmt.Errorf("config: NumGPUs = %d", m.NumGPUs)
	case m.NumGPUs > MaxGPUs:
		return fmt.Errorf("config: NumGPUs = %d exceeds MaxGPUs (%d)", m.NumGPUs, MaxGPUs)
	case m.CUsPerGPU < 1:
		return fmt.Errorf("config: CUsPerGPU = %d", m.CUsPerGPU)
	case m.PTWThreads < 1:
		return fmt.Errorf("config: PTWThreads = %d", m.PTWThreads)
	case m.AccessCounterThreshold < 1:
		return fmt.Errorf("config: AccessCounterThreshold = %d", m.AccessCounterThreshold)
	}
	return nil
}

// MigrationPolicy selects how pages move between memories (§3.3).
type MigrationPolicy int

const (
	// AccessCounter is the baseline on NVIDIA A100: migrate when a page's
	// remote-access counter reaches the threshold.
	AccessCounter MigrationPolicy = iota
	// FirstTouch pins a page to the GPU that first touched it.
	FirstTouch
	// OnTouch migrates on every remote far fault.
	OnTouch
	// Replication duplicates pages on read and collapses them on write (§7.4).
	Replication
)

func (p MigrationPolicy) String() string {
	switch p {
	case AccessCounter:
		return "access-counter"
	case FirstTouch:
		return "first-touch"
	case OnTouch:
		return "on-touch"
	case Replication:
		return "replication"
	}
	return "unknown"
}

// DirectoryKind selects the invalidation-filtering mechanism.
type DirectoryKind int

const (
	// Broadcast is the conventional UVM driver: invalidate every GPU.
	Broadcast DirectoryKind = iota
	// InPTE is §6.2's directory in the unused host-PTE bits.
	InPTE
	// VMTable is §6.4's in-memory directory with the VM-Cache (IDYLL-InMem).
	VMTable
)

func (d DirectoryKind) String() string {
	switch d {
	case Broadcast:
		return "broadcast"
	case InPTE:
		return "in-PTE"
	case VMTable:
		return "VM-Table"
	}
	return "unknown"
}

// Scheme is one evaluated design point.
type Scheme struct {
	Name      string
	Policy    MigrationPolicy
	Directory DirectoryKind
	// IRMB is the lazy-invalidation buffer's geometry (§6.3); the zero
	// geometry means no IRMB, so invalidations are applied eagerly.
	IRMB core.Geometry
	// UnusedBits is the in-PTE hash width m (11 default; §7.2 studies 4).
	UnusedBits int
	// ZeroLatencyInval makes PTE invalidations instantaneous and free on
	// the GPUs (the idealization of Figures 2, 6 and 11). Requests are
	// still broadcast, so interconnect traffic remains.
	ZeroLatencyInval bool
	// TransFW enables fingerprint-based remote fault forwarding (§7.5).
	TransFW bool
	// NoIdleDrain disables the IRMB's idle-time write-back, leaving only
	// eviction-driven write-back — an ablation of §6.3's design choice.
	NoIdleDrain bool
}

// Named scheme constructors for the evaluation matrix.

// Baseline is access-counter migration with broadcast invalidations.
func Baseline() Scheme {
	return Scheme{Name: "Baseline", Policy: AccessCounter, Directory: Broadcast, UnusedBits: 11}
}

// OnlyLazy enables only the IRMB ("Only Lazy" in Figure 11).
func OnlyLazy() Scheme {
	s := Baseline()
	s.Name, s.IRMB = "Only Lazy", core.DefaultGeometry
	return s
}

// OnlyInPTE enables only the in-PTE directory ("Only In-PTE Directory").
func OnlyInPTE() Scheme {
	s := Baseline()
	s.Name, s.Directory = "Only In-PTE Directory", InPTE
	return s
}

// IDYLL is the full design: in-PTE directory + lazy invalidation.
func IDYLL() Scheme {
	s := Baseline()
	s.Name, s.Directory, s.IRMB = "IDYLL", InPTE, core.DefaultGeometry
	return s
}

// IDYLLInMem is the VM-Table alternative (§6.4).
func IDYLLInMem() Scheme {
	s := IDYLL()
	s.Name, s.Directory = "IDYLL-InMem", VMTable
	return s
}

// ZeroLatency is the idealized free-invalidation system.
func ZeroLatency() Scheme {
	s := Baseline()
	s.Name, s.ZeroLatencyInval = "Zero-Latency Invalidation", true
	return s
}

// FirstTouchScheme pins pages at first touch (Figure 2).
func FirstTouchScheme() Scheme {
	s := Baseline()
	s.Name, s.Policy = "First-touch", FirstTouch
	return s
}

// OnTouchScheme migrates on every touch (Figure 2).
func OnTouchScheme() Scheme {
	s := Baseline()
	s.Name, s.Policy = "On-touch", OnTouch
	return s
}

// ReplicationScheme replicates read-shared pages (§7.4).
func ReplicationScheme() Scheme {
	s := Baseline()
	s.Name, s.Policy = "Page Replication", Replication
	return s
}

// TransFWScheme is Trans-FW on the baseline (§7.5).
func TransFWScheme() Scheme {
	s := Baseline()
	s.Name, s.TransFW = "Trans-FW", true
	return s
}

// IDYLLTransFW combines IDYLL with Trans-FW (§7.5).
func IDYLLTransFW() Scheme {
	s := IDYLL()
	s.Name, s.TransFW = "IDYLL+Trans-FW", true
	return s
}
