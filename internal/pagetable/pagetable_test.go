package pagetable

import (
	"slices"
	"testing"
	"testing/quick"

	"idyll/internal/memdef"
	"idyll/internal/sim"
)

func TestMapLookupRoundTrip(t *testing.T) {
	pt := New(memdef.Page4K)
	pte := PTE{PFN: memdef.MakePFN(memdef.GPUDevice(1), 77), Valid: true, Writable: true}
	pt.Map(0xabcdef, pte)
	got, ok := pt.Lookup(0xabcdef)
	if !ok || got != pte {
		t.Fatalf("Lookup = %+v,%v", got, ok)
	}
	if _, ok := pt.Lookup(0xabcdee); ok {
		t.Fatal("phantom mapping")
	}
}

func TestWalkVisitsAllLevelsForMappedPage(t *testing.T) {
	pt := New(memdef.Page4K)
	vpn := memdef.VPN(0x123456789 & (1<<36 - 1))
	pt.Map(vpn, PTE{Valid: true})
	visits, pte, ok := pt.Walk(vpn)
	if !ok || !pte.Valid {
		t.Fatalf("walk failed: ok=%v pte=%+v", ok, pte)
	}
	if len(visits) != 4 {
		t.Fatalf("visited %d levels, want 4", len(visits))
	}
	for i, v := range visits {
		wantLevel := 4 - i
		if v.Level != wantLevel {
			t.Errorf("visit %d level %d, want %d", i, v.Level, wantLevel)
		}
		if v.Prefix != memdef.LevelPrefix(vpn, wantLevel) {
			t.Errorf("visit %d prefix %#x mismatch", i, v.Prefix)
		}
	}
}

func TestWalkStopsEarlyOnAbsentSubtree(t *testing.T) {
	pt := New(memdef.Page4K)
	pt.Map(0, PTE{Valid: true})
	// A VPN differing at the top level: only the L4 entry is inspected.
	far := memdef.VPN(1) << 27
	visits, _, ok := pt.Walk(far)
	if ok {
		t.Fatal("walk found absent mapping")
	}
	if len(visits) != 1 || visits[0].Level != 4 {
		t.Fatalf("visits = %+v, want single L4 visit", visits)
	}
	// A VPN sharing L4..L2 but with a different leaf index walks all levels.
	near := memdef.VPN(1)
	visits, _, ok = pt.Walk(near)
	if ok {
		t.Fatal("walk found absent leaf")
	}
	if len(visits) != 4 {
		t.Fatalf("near-miss visited %d levels, want 4", len(visits))
	}
}

func TestInvalidateKeepsResidentEntry(t *testing.T) {
	pt := New(memdef.Page4K)
	pt.Map(42, PTE{Valid: true})
	if !pt.Invalidate(42) {
		t.Fatal("first invalidation should report a valid entry")
	}
	if pt.Invalidate(42) {
		t.Fatal("second invalidation should be unnecessary")
	}
	// The stale entry still costs a full walk.
	visits, pte, ok := pt.Walk(42)
	if !ok || pte.Valid {
		t.Fatalf("stale PTE walk: ok=%v valid=%v", ok, pte.Valid)
	}
	if len(visits) != 4 {
		t.Fatalf("stale walk visited %d levels", len(visits))
	}
	if pt.Resident() != 1 || pt.ValidCount() != 0 {
		t.Fatalf("resident=%d valid=%d", pt.Resident(), pt.ValidCount())
	}
}

func TestInvalidateAbsentIsUnnecessary(t *testing.T) {
	pt := New(memdef.Page4K)
	if pt.Invalidate(7) {
		t.Fatal("invalidating an absent entry must report unnecessary")
	}
	if pt.Resident() != 0 {
		t.Fatal("invalidation of absent entry must not allocate")
	}
}

func TestValidCountTracksMapAndInvalidate(t *testing.T) {
	pt := New(memdef.Page4K)
	pt.Map(1, PTE{Valid: true})
	pt.Map(2, PTE{Valid: true})
	pt.Map(1, PTE{Valid: true, Writable: true}) // remap, still 2 valid
	if pt.ValidCount() != 2 {
		t.Fatalf("valid = %d, want 2", pt.ValidCount())
	}
	pt.Invalidate(1)
	if pt.ValidCount() != 1 {
		t.Fatalf("valid = %d, want 1", pt.ValidCount())
	}
	pt.Map(1, PTE{Valid: true})
	if pt.ValidCount() != 2 {
		t.Fatalf("revalidate: valid = %d, want 2", pt.ValidCount())
	}
}

func Test2MBTableHasThreeLevels(t *testing.T) {
	pt := New(memdef.Page2M)
	vpn := memdef.VPN(0x1ffffff) // 25-bit VPN
	pt.Map(vpn, PTE{Valid: true})
	visits, pte, ok := pt.Walk(vpn)
	if !ok || !pte.Valid {
		t.Fatal("2MB walk failed")
	}
	if len(visits) != 3 {
		t.Fatalf("2MB walk visited %d levels, want 3", len(visits))
	}
}

func TestRemoteMappingDetection(t *testing.T) {
	local := memdef.GPUDevice(0)
	pte := PTE{PFN: memdef.MakePFN(memdef.GPUDevice(2), 5), Valid: true}
	if !pte.Remote(local) {
		t.Fatal("mapping to GPU2 memory should be remote for GPU0")
	}
	if pte.Remote(memdef.GPUDevice(2)) {
		t.Fatal("mapping should be local for its owner")
	}
	if (PTE{}).Remote(local) {
		t.Fatal("invalid PTE must not report remote")
	}
}

func TestEntryAuxBitsPersist(t *testing.T) {
	pt := New(memdef.Page4K)
	pt.Map(9, PTE{Valid: true})
	pt.Entry(9).Aux |= 1 << 3
	got, _ := pt.Lookup(9)
	if got.Aux != 1<<3 {
		t.Fatalf("Aux = %#x", got.Aux)
	}
}

func TestRangeVisitsAllEntries(t *testing.T) {
	pt := New(memdef.Page4K)
	want := map[memdef.VPN]bool{}
	for _, v := range []memdef.VPN{1, 513, 1 << 20, 1 << 30} {
		pt.Map(v, PTE{Valid: true})
		want[v] = true
	}
	got := map[memdef.VPN]bool{}
	pt.Range(func(v memdef.VPN, p PTE) bool {
		got[v] = true
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ranged %d entries, want %d", len(got), len(want))
	}
	for v := range want {
		if !got[v] {
			t.Errorf("vpn %#x missing from Range", v)
		}
	}
}

// Property: Map then Lookup always round-trips, and Walk agrees with Lookup.
func TestMapWalkAgreementProperty(t *testing.T) {
	prop := func(raws []uint64) bool {
		pt := New(memdef.Page4K)
		seen := map[memdef.VPN]PTE{}
		for i, raw := range raws {
			vpn := memdef.VPN(raw & (1<<36 - 1))
			pte := PTE{PFN: memdef.PFN(i), Valid: i%3 != 0}
			pt.Map(vpn, pte)
			seen[vpn] = pte
		}
		for vpn, want := range seen {
			got, ok := pt.Lookup(vpn)
			if !ok || got != want {
				return false
			}
			visits, wgot, wok := pt.Walk(vpn)
			if !wok || wgot != want || len(visits) != 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refTable is the node-by-node radix page table this package used to be: a
// map per interior node keyed by the level index, PTEs in leaf maps. It is
// the oracle TestTableMatchesRadixReference checks the flat table against.
type refTable struct {
	levels          int
	root            *refNode
	resident, valid int
}

type refNode struct {
	children map[uint64]*refNode
	ptes     map[uint64]*PTE
}

func newRef(size memdef.PageSize) *refTable {
	return &refTable{levels: size.Levels(), root: &refNode{}}
}

func (t *refTable) walk(vpn memdef.VPN) (visits []Visit, pte PTE, ok bool) {
	n := t.root
	for level := t.levels; level >= 1; level-- {
		visits = append(visits, Visit{Level: level, Prefix: memdef.LevelPrefix(vpn, level)})
		idx := memdef.LevelIndex(vpn, level)
		if level == 1 {
			p, exists := n.ptes[idx]
			if !exists {
				return visits, PTE{}, false
			}
			return visits, *p, true
		}
		child, exists := n.children[idx]
		if !exists {
			return visits, PTE{}, false
		}
		n = child
	}
	return visits, PTE{}, false
}

func (t *refTable) entry(vpn memdef.VPN, create bool) *PTE {
	n := t.root
	for level := t.levels; level > 1; level-- {
		idx := memdef.LevelIndex(vpn, level)
		child := n.children[idx]
		if child == nil {
			if !create {
				return nil
			}
			if n.children == nil {
				n.children = make(map[uint64]*refNode)
			}
			child = &refNode{}
			n.children[idx] = child
		}
		n = child
	}
	idx := memdef.LevelIndex(vpn, 1)
	p := n.ptes[idx]
	if p == nil && create {
		if n.ptes == nil {
			n.ptes = make(map[uint64]*PTE)
		}
		p = &PTE{}
		n.ptes[idx] = p
		t.resident++
	}
	return p
}

func (t *refTable) mapPTE(vpn memdef.VPN, pte PTE) {
	p := t.entry(vpn, true)
	if p.Valid && !pte.Valid {
		t.valid--
	} else if !p.Valid && pte.Valid {
		t.valid++
	}
	*p = pte
}

func (t *refTable) invalidate(vpn memdef.VPN) bool {
	p := t.entry(vpn, false)
	if p == nil || !p.Valid {
		return false
	}
	p.Valid = false
	t.valid--
	return true
}

// rangeAll lists every PTE in radix traversal order: child indices
// ascending at every level.
func (t *refTable) rangeAll() (vpns []memdef.VPN, ptes []PTE) {
	var visit func(n *refNode, level int, prefix uint64)
	visit = func(n *refNode, level int, prefix uint64) {
		if level == 1 {
			for _, idx := range sortedKeys(n.ptes) {
				vpns = append(vpns, memdef.VPN(prefix<<9|idx))
				ptes = append(ptes, *n.ptes[idx])
			}
			return
		}
		for _, idx := range sortedKeys(n.children) {
			visit(n.children[idx], level-1, prefix<<9|idx)
		}
	}
	visit(t.root, t.levels, 0)
	return vpns, ptes
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Property: over random Map / Invalidate / Entry / Release sequences, the
// flat table
// answers every question exactly as the radix reference does — Walk's
// visits, PTE and ok (early stops included), Lookup, the resident and valid
// counts, and Range's order. VPNs come from a few dense clusters, a sparse
// spread, and aliases that differ only above the radix index bits (≥ 2^36
// for 4 KB pages), which both tables must map to the same slot.
func TestTableMatchesRadixReference(t *testing.T) {
	for _, size := range []memdef.PageSize{memdef.Page4K, memdef.Page2M} {
		indexBits := uint(9 * size.Levels())
		prop := func(seed uint64) bool {
			rng := sim.NewRand(seed)
			vpn := func() memdef.VPN {
				var v uint64
				switch rng.Intn(4) {
				case 0: // dense cluster: shares every interior level
					v = 0x12345<<9 | uint64(rng.Intn(600))
				case 1: // neighbouring subtrees
					v = uint64(rng.Intn(4))<<18 | uint64(rng.Intn(4))<<9 | uint64(rng.Intn(512))
				case 2: // anywhere in the indexed space
					v = rng.Uint64() & (1<<indexBits - 1)
				default: // an alias above the index bits
					v = uint64(rng.Intn(3)+1)<<indexBits | uint64(rng.Intn(2048))
				}
				return memdef.VPN(v)
			}
			pt, ref := New(size), newRef(size)
			for i := 0; i < 400; i++ {
				v := vpn()
				if rng.Intn(100) == 0 {
					// Release and rebuild: the reused table must start
					// as empty as the reference, whatever page size it
					// had.
					var r sim.Recycler
					pt.Release(&r)
					other := memdef.Page2M
					if size == other {
						other = memdef.Page4K
					}
					NewFrom(&r, other).Release(&r)
					pt, ref = NewFrom(&r, size), newRef(size)
				}
				switch op := rng.Intn(10); {
				case op < 4:
					pte := PTE{PFN: memdef.PFN(rng.Intn(1 << 20)), Valid: rng.Intn(3) != 0, Writable: rng.Intn(2) == 0}
					pt.Map(v, pte)
					ref.mapPTE(v, pte)
				case op < 6:
					if pt.Invalidate(v) != ref.invalidate(v) {
						return false
					}
				case op < 7:
					aux := uint16(rng.Intn(1 << 11))
					pt.Entry(v).Aux ^= aux
					ref.entry(v, true).Aux ^= aux
				default:
					gv, gp, gok := pt.Walk(v)
					wv, wp, wok := ref.walk(v)
					if !slices.Equal(gv, wv) || gp != wp || gok != wok {
						return false
					}
					gl, lok := pt.Lookup(v)
					wl := ref.entry(v, false)
					if lok != (wl != nil) || (wl != nil && gl != *wl) {
						return false
					}
				}
				if pt.Resident() != ref.resident || pt.ValidCount() != ref.valid {
					return false
				}
			}
			var gotV []memdef.VPN
			var gotP []PTE
			pt.Range(func(v memdef.VPN, p PTE) bool {
				gotV, gotP = append(gotV, v), append(gotP, p)
				return true
			})
			wantV, wantP := ref.rangeAll()
			return slices.Equal(gotV, wantV) && slices.Equal(gotP, wantP)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s pages: %v", size, err)
		}
	}
}
