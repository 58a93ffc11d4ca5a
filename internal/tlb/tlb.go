// Package tlb models the GPU TLB hierarchy of §3.1: a private, fully
// associative L1 TLB per compute unit and a large set-associative L2 TLB
// shared by all CUs, plus the L2 TLB's miss-status holding register (MSHR)
// that merges concurrent misses to the same virtual page.
package tlb

import (
	"idyll/internal/cache"
	"idyll/internal/memdef"
	"idyll/internal/sim"
)

// Entry is a cached translation: the physical frame (which encodes the
// owning device, so remote mappings are directly visible) and the write
// permission, needed by the page-replication policy to trap writes to
// read-only replicas.
type Entry struct {
	PFN      memdef.PFN
	Writable bool
}

// TLB is one translation lookaside buffer level.
type TLB struct {
	c       *cache.SetAssoc[memdef.VPN, Entry]
	latency sim.VTime
	// counts[bucket(vpn)] is the exact number of resident VPNs hashing to
	// that bucket, kept on fill, eviction and shootdown. Most shootdowns
	// name a page this TLB does not hold; an empty bucket answers them
	// without scanning a set. Allocated on the first fill (an empty TLB
	// needs none) and derived from the contents, it is rebuilt rather than
	// serialized on RestoreState.
	counts []uint16
	shift  uint // 64 - log2(buckets)
}

// Config describes a TLB level's geometry and lookup latency.
type Config struct {
	Entries int
	Ways    int
	Latency sim.VTime
}

// New builds a TLB. A fully associative TLB has Ways == Entries (one set).
func New(cfg Config) *TLB { return NewFrom(nil, cfg) }

// NewFrom is New reusing a TLB of the same geometry released into r, if r
// holds one.
func NewFrom(r *sim.Recycler, cfg Config) *TLB {
	sets := cfg.Entries / cfg.Ways
	if sets < 1 {
		sets = 1
	}
	// Four buckets per entry, rounded up to a power of two, keep a
	// shootdown of an absent page answered by an empty bucket most of the
	// time.
	bits := uint(0)
	for 1<<bits < 4*cfg.Entries {
		bits++
	}
	var t *TLB
	if v, ok := r.Take(recycleKey(sets, cfg.Ways, 64-bits)); ok {
		t = v.(*TLB)
	} else {
		t = &TLB{
			c:     cache.New[memdef.VPN, Entry](sets, cfg.Ways, func(v memdef.VPN) uint64 { return uint64(v) }),
			shift: 64 - bits,
		}
	}
	t.latency = cfg.Latency
	return t
}

// recycleKey files a TLB with a sim.Recycler: its sets, ways and filter
// size fix its storage.
func recycleKey(sets, ways int, shift uint) sim.RecycleKey {
	return sim.RecycleKey{Kind: "tlb.TLB", Dims: [5]int{sets, ways, int(shift)}}
}

// Release empties t and files it with r for NewFrom to reuse. The caller
// must not touch t afterwards.
func (t *TLB) Release(r *sim.Recycler) {
	t.Flush()
	r.Put(recycleKey(t.c.Sets(), t.c.Ways(), t.shift), t)
}

// bucket hashes vpn to its filter bucket (Fibonacci hashing: the top bits
// of a multiplicative hash, so neighbouring pages spread out).
func (t *TLB) bucket(vpn memdef.VPN) uint64 {
	return uint64(vpn) * 0x9e3779b97f4a7c15 >> t.shift
}

// Latency reports the lookup latency in cycles.
func (t *TLB) Latency() sim.VTime { return t.latency }

// Lookup probes the TLB for vpn.
func (t *TLB) Lookup(vpn memdef.VPN) (Entry, bool) { return t.c.Lookup(vpn) }

// Fill installs a translation.
func (t *TLB) Fill(vpn memdef.VPN, e Entry) {
	if t.counts == nil {
		t.counts = make([]uint16, 1<<(64-t.shift))
	}
	n := t.c.Len()
	// vpn is new to the TLB iff it displaced a victim or grew the TLB.
	if victim, _, evicted := t.c.Insert(vpn, e); evicted {
		t.counts[t.bucket(victim)]--
		t.counts[t.bucket(vpn)]++
	} else if t.c.Len() > n {
		t.counts[t.bucket(vpn)]++
	}
}

// Shootdown invalidates vpn and reports whether it was resident. Shootdowns
// are immediate in both baseline and IDYLL (§6.3: "upon receiving an
// invalidation request, the TLB is immediately invalidated").
func (t *TLB) Shootdown(vpn memdef.VPN) bool {
	if t.c.Len() == 0 {
		return false
	}
	b := t.bucket(vpn)
	if t.counts[b] == 0 || !t.c.Invalidate(vpn) {
		return false
	}
	t.counts[b]--
	return true
}

// Flush empties the TLB.
func (t *TLB) Flush() {
	t.c.Flush()
	clear(t.counts)
}

// recount rebuilds the filter counts from the TLB's contents.
func (t *TLB) recount() {
	if t.counts == nil {
		t.counts = make([]uint16, 1<<(64-t.shift))
	}
	clear(t.counts)
	t.c.Range(func(vpn memdef.VPN, _ Entry) bool {
		t.counts[t.bucket(vpn)]++
		return true
	})
}

// Len reports resident entries.
func (t *TLB) Len() int { return t.c.Len() }
