// Package pagetable implements the radix page tables used by both the GPUs
// (local page tables, walked by the GMMU) and the UVM driver (the
// centralized host page table that holds up-to-date translations for all
// GPUs, §3.1). A 4 KB-page table has 4 levels (L4..L1); a 2 MB-page table
// has 3 (L4..L2 with L2 as the leaf).
//
// The package models structure, not timing: a Walk reports exactly which
// level entries a hardware walker would touch, and the GMMU (internal/
// walker) charges per-level latency and consults its page-walk cache using
// those visits.
//
// The radix structure is implicit. PTEs are never removed, so an interior
// entry exists exactly when some PTE lies below it: a Table stores its PTEs
// in one pagemap.Map, and per interior level the set of entry prefixes present,
// which a walk reads only when the leaf lookup misses, to stop at the level
// where a hardware walker would find an absent entry.
package pagetable

import (
	"idyll/internal/memdef"
	"idyll/internal/pagemap"
	"idyll/internal/sim"
)

// PTE is a page-table entry. The GPU-local tables use PFN/Valid/Writable;
// Aux models the unused bits 62–52 of the x86-64 PTE format (Figure 8) that
// the host-side table repurposes as the in-PTE directory's GPU access bits.
type PTE struct {
	PFN      memdef.PFN
	Valid    bool
	Writable bool
	// Aux carries the 11 unused high bits (62–52) available for the in-PTE
	// directory. Only the host page table uses it.
	Aux uint16
}

// Remote reports whether the mapping points at memory not owned by dev —
// i.e. it is a remote mapping in dev's local page table (§3.2).
func (p PTE) Remote(dev memdef.DeviceID) bool {
	return p.Valid && p.PFN.Device() != dev
}

// Visit records one page-table level touched during a walk. Level runs from
// the table's top level down to 1 (leaf); Prefix is the VPN prefix that
// identifies the visited entry, the key used by the page-walk cache.
type Visit struct {
	Level  int
	Prefix uint64
}

// Table is one radix page table: its PTEs keyed by the VPN masked to the
// 9×levels bits the radix levels index, plus the interior entries' prefix
// sets (see the package comment).
type Table struct {
	pageSize memdef.PageSize
	levels   int
	mask     uint64 // the VPN bits the radix levels index
	ptes     pagemap.Map[memdef.VPN, PTE]
	// prefixes[level-2] holds LevelPrefix(key, level) of every entry
	// present at interior level 2..levels.
	prefixes [3]pagemap.Map[uint64, struct{}]
	valid    int // number of valid PTEs
}

// New creates an empty page table for the given page size. Its maps are
// allocated on the first insert.
func New(pageSize memdef.PageSize) *Table { return NewFrom(nil, pageSize) }

// recycleKey files released tables with a sim.Recycler: a table's maps fit
// every page size.
var recycleKey = sim.RecycleKey{Kind: "pagetable.Table"}

// NewFrom is New reusing the maps of a table released into r, if r holds
// one. A reused table's maps may have more slots than a new one's; nothing
// depends on slot order (Range sorts), so only memory differs.
func NewFrom(r *sim.Recycler, pageSize memdef.PageSize) *Table {
	var t *Table
	if v, ok := r.Take(recycleKey); ok {
		t = v.(*Table)
	} else {
		t = new(Table)
	}
	t.pageSize = pageSize
	t.levels = pageSize.Levels()
	t.mask = 1<<(9*uint(t.levels)) - 1 // 9 index bits per level
	return t
}

// Release empties t and files it with r for NewFrom to reuse. The caller
// must not touch t afterwards.
func (t *Table) Release(r *sim.Recycler) {
	t.ptes.Clear()
	for i := range t.prefixes {
		t.prefixes[i].Clear()
	}
	t.valid = 0
	r.Put(recycleKey, t)
}

// PageSize reports the table's page size.
func (t *Table) PageSize() memdef.PageSize { return t.pageSize }

// Levels reports the number of radix levels.
func (t *Table) Levels() int { return t.levels }

// Resident reports how many PTEs exist in the table (including entries that
// have been invalidated in place, which still occupy a leaf slot and still
// cost a full walk to inspect — the "even if it were invalid to begin with"
// case of §2).
func (t *Table) Resident() int { return t.ptes.Len() }

// ValidCount reports how many PTEs are currently valid.
func (t *Table) ValidCount() int { return t.valid }

// Reserve sizes the table to hold n PTEs without growing its leaf map; a
// caller that knows how many pages it is about to install calls it first.
func (t *Table) Reserve(n int) { t.ptes.Reserve(n) }

// key is vpn's leaf key: the bits the radix levels index. Higher VPN bits
// alias, as they do in a radix table that indexes each level by 9 bits.
func (t *Table) key(vpn memdef.VPN) memdef.VPN { return memdef.VPN(uint64(vpn) & t.mask) }

// interior reports whether the entry key selects at an interior level exists.
func (t *Table) interior(key memdef.VPN, level int) bool {
	return t.prefixes[level-2].Has(memdef.LevelPrefix(key, level))
}

// Walk simulates a hardware page-table walk for vpn. It returns the ordered
// level visits a walker performs and the PTE found, if any. The walk
// descends from the top level; if an intermediate entry is absent the walk
// stops there (visits includes the level where absence was discovered) and
// ok is false. If the leaf slot is empty, ok is false after a full-length
// walk. If the leaf holds an invalidated PTE, ok is true and pte.Valid is
// false — the walker walked all the way to discover staleness.
func (t *Table) Walk(vpn memdef.VPN) (visits []Visit, pte PTE, ok bool) {
	return t.WalkInto(make([]Visit, 0, t.levels), vpn)
}

// WalkInto is Walk appending into a caller-provided buffer (resliced to
// empty), letting hot callers reuse one scratch slice across walks.
//
// Level numbering is table-relative: the leaf is always level 1 and the top
// level is t.levels, so a 2 MB table walks levels 3,2,1 over its VPN.
func (t *Table) WalkInto(buf []Visit, vpn memdef.VPN) (visits []Visit, pte PTE, ok bool) {
	visits = buf[:0]
	key := t.key(vpn)
	p := t.ptes.Ptr(key)
	last := 1 // the level the walk ends at
	if p == nil {
		// The walk stops at the highest absent interior entry. An entry
		// implies every entry above it, so search upward from level 2,
		// where most misses find their entry present (an empty leaf slot
		// next to mapped pages).
		for level := 2; level <= t.levels && !t.interior(key, level); level++ {
			last = level
		}
	}
	for level := t.levels; level >= last; level-- {
		visits = append(visits, Visit{Level: level, Prefix: memdef.LevelPrefix(vpn, level)})
	}
	if p == nil {
		return visits, PTE{}, false
	}
	return visits, *p, true
}

// Lookup returns the PTE for vpn without simulating walk structure.
func (t *Table) Lookup(vpn memdef.VPN) (PTE, bool) {
	p := t.entry(vpn, false)
	if p == nil {
		return PTE{}, false
	}
	return *p, true
}

// entry returns the *PTE for vpn, creating it (and the interior entries
// above it) if create is set. The pointer is valid until the next PTE is
// created (see pagemap.Map.Put).
func (t *Table) entry(vpn memdef.VPN, create bool) *PTE {
	key := t.key(vpn)
	if !create {
		return t.ptes.Ptr(key)
	}
	p, added := t.ptes.Put(key)
	if added {
		// An existing interior entry implies every entry above it.
		for level := 2; level <= t.levels; level++ {
			if _, added := t.prefixes[level-2].Put(memdef.LevelPrefix(key, level)); !added {
				break
			}
		}
	}
	return p
}

// Map installs or replaces the translation for vpn.
func (t *Table) Map(vpn memdef.VPN, pte PTE) {
	p := t.entry(vpn, true)
	if p.Valid && !pte.Valid {
		t.valid--
	} else if !p.Valid && pte.Valid {
		t.valid++
	}
	*p = pte
}

// Invalidate marks vpn's PTE invalid in place. It reports whether a valid
// translation was present — the signal that distinguishes a necessary from
// an unnecessary invalidation (§5.2). The leaf slot is retained, matching
// hardware behaviour where invalidation clears the present bit but the entry
// still occupies the table.
func (t *Table) Invalidate(vpn memdef.VPN) (wasValid bool) {
	p := t.entry(vpn, false)
	if p == nil {
		return false
	}
	if p.Valid {
		p.Valid = false
		t.valid--
		return true
	}
	return false
}

// Entry exposes the mutable PTE for vpn, creating it if needed. The UVM
// driver uses this to update the in-PTE directory access bits (Aux) during
// host-side walks. Flip Valid only through Map and Invalidate, which keep
// the table's valid count. The pointer is valid only until the next call
// that may create a PTE (Entry or Map): finish writing through it first.
func (t *Table) Entry(vpn memdef.VPN) *PTE {
	return t.entry(vpn, true)
}

// Range iterates all resident PTEs in ascending VPN order until fn returns
// false. The order is part of the contract: callbacks escape iteration
// order to callers, so handing them the table's slot order would let its
// insertion history leak into anything built on top of Range (checkpoint
// bytes, for one). VPNs are reported masked
// to the radix index bits, as a radix traversal reconstructs them.
func (t *Table) Range(fn func(memdef.VPN, PTE) bool) {
	for _, k := range t.ptes.SortedKeys() {
		if pte, _ := t.ptes.Get(k); !fn(k, pte) {
			return
		}
	}
}
