package core

import (
	"testing"
	"testing/quick"

	"idyll/internal/memdef"
)

func TestIRMBGeometryBytes(t *testing.T) {
	// §6.3: (36 + 144) × 32 / 8 = 720 bytes for the default geometry.
	if got := DefaultGeometry.Bytes(); got != 720 {
		t.Fatalf("default IRMB size = %d bytes, want 720", got)
	}
	if got := (Geometry{Bases: 16, Offsets: 8}).Bytes(); got != (36+72)*16/8 {
		t.Fatalf("(16,8) size = %d", got)
	}
}

func TestIRMBInsertLookup(t *testing.T) {
	b := NewIRMB(DefaultGeometry)
	if wb, _ := b.Insert(100); wb != nil {
		t.Fatalf("first insert wrote back %v", wb)
	}
	if !b.Lookup(100) {
		t.Fatal("inserted VPN not found")
	}
	if b.Lookup(101) {
		t.Fatal("phantom hit")
	}
	if b.PendingInvalidations() != 1 {
		t.Fatalf("pending = %d", b.PendingInvalidations())
	}
}

func TestIRMBMergesSameBase(t *testing.T) {
	b := NewIRMB(DefaultGeometry)
	// VPNs 0..15 share a base (offsets 0..15).
	for v := memdef.VPN(0); v < 16; v++ {
		if wb, _ := b.Insert(v); wb != nil {
			t.Fatalf("insert %d wrote back %v", v, wb)
		}
	}
	if b.Len() != 1 {
		t.Fatalf("entries = %d, want 1 merged entry", b.Len())
	}
	if b.PendingInvalidations() != 16 {
		t.Fatalf("pending = %d, want 16", b.PendingInvalidations())
	}
}

func TestIRMBDuplicateInsertIsIdempotent(t *testing.T) {
	b := NewIRMB(DefaultGeometry)
	b.Insert(5)
	if wb, _ := b.Insert(5); wb != nil {
		t.Fatalf("duplicate insert wrote back %v", wb)
	}
	if b.PendingInvalidations() != 1 {
		t.Fatalf("pending = %d, want 1", b.PendingInvalidations())
	}
}

func TestIRMBOffsetOverflowEvictsEntryOffsets(t *testing.T) {
	b := NewIRMB(Geometry{Bases: 4, Offsets: 4})
	for v := memdef.VPN(0); v < 4; v++ {
		b.Insert(v)
	}
	wb, merged := b.Insert(4) // fifth offset of the same base
	if len(wb) != 4 || !merged {
		t.Fatalf("writeback = %v merged = %v, want the 4 displaced VPNs, merged", wb, merged)
	}
	seen := map[memdef.VPN]bool{}
	for _, v := range wb {
		seen[v] = true
	}
	for v := memdef.VPN(0); v < 4; v++ {
		if !seen[v] {
			t.Fatalf("VPN %d missing from writeback", v)
		}
	}
	if !b.Lookup(4) {
		t.Fatal("new offset lost after overflow")
	}
	if b.Lookup(0) {
		t.Fatal("evicted offset still resident")
	}
}

func TestIRMBBaseOverflowEvictsLRUEntry(t *testing.T) {
	b := NewIRMB(Geometry{Bases: 2, Offsets: 4})
	b.Insert(0 << 9)                 // base 0
	b.Insert(1 << 9)                 // base 1
	b.Insert(0<<9 | 1)               // touch base 0 → base 1 is now LRU
	wb, merged := b.Insert(2<<9 | 3) // base 2 evicts base 1
	if len(wb) != 1 || wb[0] != 1<<9 || merged {
		t.Fatalf("writeback = %v merged = %v, want [%d], not merged", wb, merged, 1<<9)
	}
	if !b.Lookup(0<<9) || !b.Lookup(0<<9|1) || !b.Lookup(2<<9|3) {
		t.Fatal("survivors lost")
	}
}

func TestIRMBRemoveOnNewMapping(t *testing.T) {
	b := NewIRMB(DefaultGeometry)
	b.Insert(10)
	b.Insert(11)
	if !b.Remove(10) {
		t.Fatal("Remove missed buffered VPN")
	}
	if b.Lookup(10) {
		t.Fatal("removed VPN still resident")
	}
	if !b.Lookup(11) {
		t.Fatal("sibling offset lost")
	}
	if b.Remove(10) {
		t.Fatal("second Remove should miss")
	}
	// Removing the last offset of an entry frees the base.
	b.Remove(11)
	if b.Len() != 0 {
		t.Fatalf("entries = %d after removing all offsets", b.Len())
	}
}

func TestIRMBDrainLRU(t *testing.T) {
	b := NewIRMB(Geometry{Bases: 4, Offsets: 4})
	b.Insert(0 << 9)
	b.Insert(1 << 9)
	b.Insert(1<<9 | 1)
	// Base 0 is LRU (base 1 touched later).
	wb := b.DrainLRU()
	if len(wb) != 1 || wb[0] != 0 {
		t.Fatalf("drained %v, want [0]", wb)
	}
	wb = b.DrainLRU()
	if len(wb) != 2 {
		t.Fatalf("drained %v, want base-1's two VPNs", wb)
	}
	if b.DrainLRU() != nil {
		t.Fatal("drain of empty IRMB returned entries")
	}
	if !b.Empty() {
		t.Fatal("IRMB not empty after draining")
	}
}

// Insert reports a merge whenever the request's base is already resident:
// a new offset joins the entry, and a duplicate merges fully.
func TestIRMBInsertMerged(t *testing.T) {
	b := NewIRMB(DefaultGeometry)
	for _, c := range []struct {
		vpn  memdef.VPN
		want bool
		what string
	}{
		{1, false, "new base"},
		{2, true, "new offset in a resident base"},
		{1, true, "duplicate"},
		{1 << 9, false, "second new base"},
	} {
		if wb, merged := b.Insert(c.vpn); merged != c.want || wb != nil {
			t.Fatalf("%s: Insert(%d) = %v, merged %v; want merged %v", c.what, c.vpn, wb, merged, c.want)
		}
	}
}

// Invariants under arbitrary insert/remove/drain sequences:
//   - entries never exceed Bases, offsets per entry never exceed Offsets;
//   - a VPN inserted and not since evicted/removed/drained is always found;
//   - writeback batches always share a single base.
func TestIRMBInvariantsProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		g := Geometry{Bases: 4, Offsets: 4}
		b := NewIRMB(g)
		live := map[memdef.VPN]bool{}
		evict := func(vpns []memdef.VPN) bool {
			if len(vpns) == 0 {
				return true
			}
			base := memdef.IRMBBase(vpns[0])
			for _, v := range vpns {
				if memdef.IRMBBase(v) != base {
					return false
				}
				delete(live, v)
			}
			return true
		}
		for _, op := range ops {
			vpn := memdef.VPN(op % 64) // few bases, many collisions
			switch op % 3 {
			case 0, 1:
				if wb, _ := b.Insert(vpn); !evict(wb) {
					return false
				}
				live[vpn] = true
			case 2:
				if op%6 == 2 {
					b.Remove(vpn)
					delete(live, vpn)
				} else if !evict(b.DrainLRU()) {
					return false
				}
			}
			if b.Len() > g.Bases {
				return false
			}
			for v := range live {
				if !b.Lookup(v) {
					return false
				}
			}
		}
		return b.PendingInvalidations() == len(live)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestIRMBInsertWithoutEvictionAllocatesNothing: buffering a new base reuses
// an emptied entry and shifts the entry slice in place, so inserts that
// evict nothing — new bases, merged offsets, duplicates — and the removals
// that empty entries allocate nothing once the IRMB has warmed up.
func TestIRMBInsertWithoutEvictionAllocatesNothing(t *testing.T) {
	b := NewIRMB(DefaultGeometry)
	for i := 0; i < DefaultGeometry.Bases-2; i++ {
		b.Insert(memdef.VPN(i) << 9) // a mostly full buffer to shift through
	}
	a, c := memdef.VPN(1<<20), memdef.VPN(1<<20+1) // one base, two offsets
	allocs := testing.AllocsPerRun(100, func() {
		for _, v := range []memdef.VPN{a, c, a, 2 << 20} {
			if wb, _ := b.Insert(v); wb != nil {
				t.Fatalf("Insert(%#x) evicted %v", v, wb)
			}
		}
		if !b.Lookup(c) || !b.Remove(a) || !b.Remove(c) || !b.Remove(2<<20) {
			t.Fatal("buffered invalidations not found")
		}
	})
	if allocs != 0 {
		t.Fatalf("insert without eviction allocates %v times", allocs)
	}
}
