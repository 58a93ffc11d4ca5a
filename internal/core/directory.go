// Package core implements the paper's primary contribution: the IDYLL
// mechanisms. It contains
//
//   - the invalidation Directory abstraction with three implementations:
//     conventional broadcast (baseline), the in-PTE directory that stores
//     per-GPU access bits in the unused bits 62–52 of host page-table
//     entries (§6.2, Figure 8), and the in-memory VM-Table + VM-Cache
//     alternative (IDYLL-InMem, §6.4, Figure 10); and
//
//   - the Invalidation Request Merging Buffer (IRMB) that realizes lazy
//     invalidation (§6.3, Figure 9).
//
// Timing is expressed as extra latencies returned to the caller (the UVM
// driver and the GPU GMMU), which schedule them on the shared event engine.
package core

import (
	"idyll/internal/cache"
	"idyll/internal/memdef"
	"idyll/internal/pagetable"
	"idyll/internal/sim"
)

// Directory decides which GPUs must receive the PTE-invalidation requests
// for a migrating page, and records which GPUs establish mappings.
type Directory interface {
	// Targets returns the GPUs that must be invalidated for vpn, as a mask
	// with bit g set for GPU g (a machine has at most 64 GPUs, see
	// config.MaxGPUs), and any extra lookup latency beyond the host
	// page-table walk the driver performs anyway. Supersets are allowed
	// (false positives cost extra requests but preserve correctness, §6.2);
	// subsets are not.
	Targets(vpn memdef.VPN) (gpus uint64, extra sim.VTime)
	// Record notes that gpu established a valid mapping for vpn, and
	// returns any extra latency of the bookkeeping.
	Record(vpn memdef.VPN, gpu int) sim.VTime
	// Clear forgets all holders of vpn (called once invalidations are sent,
	// §6.2: "the access bits are also cleared to 0").
	Clear(vpn memdef.VPN)
	// RequiresHostWalkFirst reports whether the driver must complete the
	// host page-table walk before it can name targets. True for the in-PTE
	// directory (the bits live in the PTE); false for broadcast (which the
	// baseline sends before the walk completes, §6.2) and for the VM-Cache
	// (looked up in parallel with the walk, §6.4).
	RequiresHostWalkFirst() bool
}

// BroadcastDirectory is the conventional UVM behaviour: invalidations go to
// every GPU because the driver has no residency information.
type BroadcastDirectory struct {
	all uint64
}

// NewBroadcastDirectory builds the baseline directory for numGPUs GPUs.
func NewBroadcastDirectory(numGPUs int) *BroadcastDirectory {
	return &BroadcastDirectory{all: ^uint64(0) >> (64 - uint(numGPUs))}
}

// Targets returns every GPU with no extra latency.
func (d *BroadcastDirectory) Targets(memdef.VPN) (uint64, sim.VTime) { return d.all, 0 }

// Record is a no-op: the baseline keeps no residency state.
func (d *BroadcastDirectory) Record(memdef.VPN, int) sim.VTime { return 0 }

// Clear is a no-op.
func (d *BroadcastDirectory) Clear(memdef.VPN) {}

// RequiresHostWalkFirst is false: the baseline broadcasts immediately.
func (d *BroadcastDirectory) RequiresHostWalkFirst() bool { return false }

// InPTEDirectory stores GPU access bits in the unused bits of host PTEs
// (Figure 8). With m unused bits and more than m GPUs, GPU id maps to bit
// h(id) = id mod m, so distinct GPUs may share a bit — lookups then
// over-approximate, which is safe.
type InPTEDirectory struct {
	hostPT  *pagetable.Table
	numGPUs int
	// unusedBits is m in the paper's hash h(GPUid) = GPUid % m + 52.
	// The default design uses the 11 bits 62–52; §7.2 also evaluates m=4.
	unusedBits int
}

// NewInPTEDirectory builds the in-PTE directory over the host page table.
func NewInPTEDirectory(hostPT *pagetable.Table, numGPUs, unusedBits int) *InPTEDirectory {
	if unusedBits <= 0 || unusedBits > 14 {
		// §6.2: at most 14 unused bits exist (62–52 and 11–9); the design
		// uses 62–52 to keep the hash simple.
		panic("core: unused-bit count out of range")
	}
	return &InPTEDirectory{hostPT: hostPT, numGPUs: numGPUs, unusedBits: unusedBits}
}

// bit returns the access-bit index for gpu.
func (d *InPTEDirectory) bit(gpu int) uint { return uint(gpu % d.unusedBits) }

// holders expands an access-bit field that keeps GPU g at bit g % width
// into the mask of every GPU whose bit is set.
func holders(bits uint64, numGPUs, width int) uint64 {
	var gpus uint64
	for g := 0; g < numGPUs; g++ {
		if bits&(1<<uint(g%width)) != 0 {
			gpus |= 1 << uint(g)
		}
	}
	return gpus
}

// Targets decodes the access bits of vpn's host PTE. The information rides
// on the host walk the driver performs anyway, so extra latency is zero —
// but RequiresHostWalkFirst forces the driver to finish that walk before
// sending, which is the "additional latency in sending invalidation
// requests" the paper accepts (§6.2).
func (d *InPTEDirectory) Targets(vpn memdef.VPN) (uint64, sim.VTime) {
	pte, ok := d.hostPT.Lookup(vpn)
	if !ok {
		return 0, 0
	}
	return holders(uint64(pte.Aux), d.numGPUs, d.unusedBits), 0
}

// Record sets gpu's access bit in vpn's host PTE.
func (d *InPTEDirectory) Record(vpn memdef.VPN, gpu int) sim.VTime {
	d.hostPT.Entry(vpn).Aux |= 1 << d.bit(gpu)
	return 0
}

// Clear zeroes vpn's access bits.
func (d *InPTEDirectory) Clear(vpn memdef.VPN) {
	if e := d.hostPT.Entry(vpn); e != nil {
		e.Aux = 0
	}
}

// RequiresHostWalkFirst is true: the bits live in the PTE itself.
func (d *InPTEDirectory) RequiresHostWalkFirst() bool { return true }

// VMDirectory is IDYLL-InMem (§6.4): an in-memory VM-Table holding one
// 64-bit entry per page (45-bit VPN + 19 GPU access bits), fronted by a
// small hardware VM-Cache (64 entries, 4-way, write-allocate, write-back).
type VMDirectory struct {
	numGPUs int
	// hashBits is 19 in the paper: with more than 19 GPUs the same modular
	// hash as the in-PTE design compresses access bits.
	hashBits int
	table    map[memdef.VPN]uint32
	vmCache  *cache.SetAssoc[memdef.VPN, uint32]

	// CacheHitLatency is the VM-Cache lookup time; MemLatency is a VM-Table
	// memory access on a VM-Cache miss.
	CacheHitLatency sim.VTime
	MemLatency      sim.VTime

	lookups uint64
	hits    uint64
}

// NewVMDirectory builds the IDYLL-InMem directory.
func NewVMDirectory(numGPUs int, cacheHit, mem sim.VTime) *VMDirectory {
	return &VMDirectory{
		numGPUs:  numGPUs,
		hashBits: 19,
		table:    make(map[memdef.VPN]uint32),
		vmCache: cache.New[memdef.VPN, uint32](16, 4, // 64 entries, 4-way
			func(v memdef.VPN) uint64 { return uint64(v) }),
		CacheHitLatency: cacheHit,
		MemLatency:      mem,
	}
}

func (d *VMDirectory) bit(gpu int) uint { return uint(gpu % d.hashBits) }

// load returns vpn's access mask, the latency of obtaining it, and caches it.
func (d *VMDirectory) load(vpn memdef.VPN) (uint32, sim.VTime) {
	d.lookups++
	if mask, ok := d.vmCache.Lookup(vpn); ok {
		d.hits++
		return mask, d.CacheHitLatency
	}
	mask := d.table[vpn] // absent ⇒ first access: zero mask (§6.4)
	d.install(vpn, mask)
	return mask, d.CacheHitLatency + d.MemLatency
}

// install caches vpn→mask, writing back any evicted dirty entry.
func (d *VMDirectory) install(vpn memdef.VPN, mask uint32) {
	ek, ev, evicted := d.vmCache.Insert(vpn, mask)
	if evicted {
		d.table[ek] = ev // write-back on eviction (Figure 10 ⓓ)
	}
}

// Targets decodes vpn's access mask. The lookup happens in parallel with the
// host walk (§6.4), so the returned latency is only what exceeds a typical
// walk — we report the raw lookup latency and let the driver overlap it.
func (d *VMDirectory) Targets(vpn memdef.VPN) (uint64, sim.VTime) {
	mask, lat := d.load(vpn)
	return holders(uint64(mask), d.numGPUs, d.hashBits), lat
}

// Record sets gpu's bit in vpn's mask.
func (d *VMDirectory) Record(vpn memdef.VPN, gpu int) sim.VTime {
	mask, lat := d.load(vpn)
	d.install(vpn, mask|1<<d.bit(gpu))
	return lat
}

// Clear zeroes vpn's mask in both cache and table.
func (d *VMDirectory) Clear(vpn memdef.VPN) {
	d.install(vpn, 0)
	delete(d.table, vpn)
}

// RequiresHostWalkFirst is false: the VM-Cache is consulted in parallel with
// the host-side walk.
func (d *VMDirectory) RequiresHostWalkFirst() bool { return false }

// Lookups reports total VM-Cache lookups.
func (d *VMDirectory) Lookups() uint64 { return d.lookups }

// Hits reports VM-Cache lookups that hit (the paper observes a 60.2% hit
// rate).
func (d *VMDirectory) Hits() uint64 { return d.hits }
