package pagetable

import (
	"idyll/internal/checkpoint"
	"idyll/internal/memdef"
)

// Checkpoint support. The radix structure is not serialized — only the leaf
// PTEs, in ascending VPN order via Range; restore rebuilds the interior
// prefix sets through Map, which also reconstructs the resident/valid
// counters for both valid and invalidated-in-place entries. Aux (the in-PTE
// directory access bits) travels with each PTE, so the directory's state
// rides the host table's checkpoint for free.

// SaveState writes every resident PTE to w.
func (t *Table) SaveState(w *checkpoint.Writer) {
	w.Int(t.levels)
	w.U32(uint32(t.ptes.Len()))
	t.Range(func(vpn memdef.VPN, pte PTE) bool {
		w.U64(uint64(vpn))
		w.U64(uint64(pte.PFN))
		w.Bool(pte.Valid)
		w.Bool(pte.Writable)
		w.U16(pte.Aux)
		return true
	})
}

// RestoreState reads the state written by SaveState into t, which must be an
// empty table of the same geometry.
func (t *Table) RestoreState(r *checkpoint.Reader) {
	if levels := r.Int(); levels != t.levels {
		r.Failf("pagetable: %d levels in checkpoint, %d configured", levels, t.levels)
		return
	}
	if n := t.ptes.Len(); n != 0 {
		r.Failf("pagetable: RestoreState into a non-empty table (%d resident)", n)
		return
	}
	n := r.Count(20) // u64 VPN, u64 PFN, two bools, u16 Aux
	t.Reserve(n)
	for i := 0; i < n && r.Err() == nil; i++ {
		vpn := memdef.VPN(r.U64())
		pte := PTE{PFN: memdef.PFN(r.U64()), Valid: r.Bool(), Writable: r.Bool(), Aux: r.U16()}
		t.Map(vpn, pte)
	}
}
