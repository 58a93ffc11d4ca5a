package core

import (
	"idyll/internal/memdef"
)

// IRMB is the Invalidation Request Merging Buffer of §6.3 (Figure 9): a
// small per-GPU structure that absorbs incoming PTE-invalidation requests so
// they stop contending with demand TLB-miss page walks.
//
// The VPN of each request is split into a base (all bits above the leaf
// page-table index) and a 9-bit offset (the leaf index). Requests sharing a
// base merge into one entry; an entry holds up to offsetsPerEntry offsets.
// Entries are kept in LRU order. Evictions — of a whole LRU entry when the
// bases are full, or of an entry's offsets when its offset slots are full —
// hand the batched VPNs back to the GMMU for a write-back walk, which enjoys
// high page-walk-cache locality because all VPNs in a batch share every
// non-leaf level.
type IRMB struct {
	maxEntries      int
	offsetsPerEntry int
	entries         []*mergedEntry // MRU first; capacity maxEntries
	// spare holds emptied entries for reuse, so buffering a new base
	// allocates nothing once the IRMB has warmed up.
	spare []*mergedEntry
}

// mergedEntry is one base with its merged offsets (Figure 9's "merged
// entry"). Offsets are kept in insertion order; membership is small-N linear
// scan, matching a CAM row.
type mergedEntry struct {
	base    uint64
	offsets []uint16
}

// Geometry describes an IRMB configuration; the paper's default is
// 32 bases × 16 offsets and Figure 15 sweeps (16,8), (16,16), (32,8), (64,16).
type Geometry struct {
	Bases   int
	Offsets int
}

// DefaultGeometry is the paper's chosen configuration (§6.3).
var DefaultGeometry = Geometry{Bases: 32, Offsets: 16}

// Bytes reports the hardware cost of the geometry using the paper's
// arithmetic: each entry stores a 36-bit base (4 × 9 bits) plus
// offsets × 9 bits, and the total is rounded to bytes. For the default
// (32, 16): (36 + 144) × 32 / 8 = 720 bytes.
func (g Geometry) Bytes() int { return (36 + 9*g.Offsets) * g.Bases / 8 }

// NewIRMB builds an empty IRMB.
func NewIRMB(g Geometry) *IRMB {
	if g.Bases <= 0 || g.Offsets <= 0 {
		panic("core: IRMB geometry must be positive")
	}
	return &IRMB{
		maxEntries:      g.Bases,
		offsetsPerEntry: g.Offsets,
		entries:         make([]*mergedEntry, 0, g.Bases),
	}
}

// Len reports the number of live merged entries.
func (b *IRMB) Len() int { return len(b.entries) }

// PendingInvalidations reports the total number of buffered VPNs.
func (b *IRMB) PendingInvalidations() int {
	n := 0
	for _, e := range b.entries {
		n += len(e.offsets)
	}
	return n
}

// Empty reports whether nothing is buffered.
func (b *IRMB) Empty() bool { return len(b.entries) == 0 }

// find returns the entry index for base, or -1.
func (b *IRMB) find(base uint64) int {
	for i, e := range b.entries {
		if e.base == base {
			return i
		}
	}
	return -1
}

// promote moves entry i to MRU position.
func (b *IRMB) promote(i int) {
	if i == 0 {
		return
	}
	e := b.entries[i]
	copy(b.entries[1:i+1], b.entries[:i])
	b.entries[0] = e
}

// Insert buffers an invalidation for vpn. If buffering forces an eviction —
// the LRU entry when all bases are in use ( b in Figure 9), or the target
// entry's own offsets when its slots are full — the displaced VPNs are
// returned and must be written back to the page table as one batch. merged
// reports whether vpn's base was already resident, so the request joined an
// existing entry rather than taking a new one.
func (b *IRMB) Insert(vpn memdef.VPN) (writeback []memdef.VPN, merged bool) {
	base := memdef.IRMBBase(vpn)
	off := memdef.IRMBOffset(vpn)

	if i := b.find(base); i >= 0 {
		e := b.entries[i]
		for _, o := range e.offsets {
			if o == off {
				// Already buffered: the request fully merges.
				b.promote(i)
				return nil, true
			}
		}
		if len(e.offsets) >= b.offsetsPerEntry {
			// Offset slots full: evict all offsets of this entry and start
			// it over with the new request (§6.3 "IRMB insertion and
			// eviction", second case).
			writeback = b.vpnsOf(e)
			e.offsets = e.offsets[:0]
		}
		e.offsets = append(e.offsets, off)
		b.promote(i)
		return writeback, true
	}

	// New base needed.
	if len(b.entries) >= b.maxEntries {
		// Evict the LRU merged entry ( b ): recently-migrated neighbourhoods
		// stay resident to keep coalescing.
		writeback = b.evictLRU()
	}
	e := b.newEntry()
	e.base, e.offsets = base, append(e.offsets, off)
	b.entries = append(b.entries, nil)
	copy(b.entries[1:], b.entries)
	b.entries[0] = e
	return writeback, false
}

// newEntry takes an empty entry from the spare list, or makes one.
func (b *IRMB) newEntry() *mergedEntry {
	if n := len(b.spare); n > 0 {
		e := b.spare[n-1]
		b.spare = b.spare[:n-1]
		return e
	}
	return &mergedEntry{offsets: make([]uint16, 0, b.offsetsPerEntry)}
}

// evictLRU removes the LRU entry, returns its VPNs and keeps the entry as
// a spare.
func (b *IRMB) evictLRU() []memdef.VPN {
	victim := b.entries[len(b.entries)-1]
	b.entries[len(b.entries)-1] = nil
	b.entries = b.entries[:len(b.entries)-1]
	vpns := b.vpnsOf(victim)
	victim.offsets = victim.offsets[:0]
	b.spare = append(b.spare, victim)
	return vpns
}

// vpnsOf expands an entry's offsets back into VPNs.
func (b *IRMB) vpnsOf(e *mergedEntry) []memdef.VPN {
	out := make([]memdef.VPN, len(e.offsets))
	for i, o := range e.offsets {
		out[i] = memdef.IRMBJoin(e.base, o)
	}
	return out
}

// Lookup reports whether vpn has a buffered invalidation. It is performed
// in parallel with the L2 TLB lookup ( B in Figure 9); a hit means the local
// PTE is stale, so the GMMU must bypass the walk and raise a far fault
// directly ( C ). Lookup does not disturb LRU order.
func (b *IRMB) Lookup(vpn memdef.VPN) bool {
	if i := b.find(memdef.IRMBBase(vpn)); i >= 0 {
		off := memdef.IRMBOffset(vpn)
		for _, o := range b.entries[i].offsets {
			if o == off {
				return true
			}
		}
	}
	return false
}

// Remove drops vpn's buffered invalidation, if present. Called when a new
// mapping for vpn arrives from the driver: the stale-PTE marker is obsolete
// because the PTE is about to be overwritten with a valid translation
// (§6.3 "IRMB lookup", last paragraph).
func (b *IRMB) Remove(vpn memdef.VPN) bool {
	i := b.find(memdef.IRMBBase(vpn))
	if i < 0 {
		return false
	}
	e := b.entries[i]
	off := memdef.IRMBOffset(vpn)
	for j, o := range e.offsets {
		if o == off {
			e.offsets = append(e.offsets[:j], e.offsets[j+1:]...)
			if len(e.offsets) == 0 {
				copy(b.entries[i:], b.entries[i+1:])
				b.entries[len(b.entries)-1] = nil
				b.entries = b.entries[:len(b.entries)-1]
				b.spare = append(b.spare, e)
			}
			return true
		}
	}
	return false
}

// DrainLRU removes and returns the LRU entry's VPNs for an idle-time
// write-back walk ("when the page table walker is available, we invalidate
// the LRU merged entry['s] corresponding PTEs", §6.3). It returns nil when
// the buffer is empty.
func (b *IRMB) DrainLRU() []memdef.VPN {
	if len(b.entries) == 0 {
		return nil
	}
	return b.evictLRU()
}
