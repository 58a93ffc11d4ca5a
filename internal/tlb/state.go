package tlb

import (
	"idyll/internal/checkpoint"
	"idyll/internal/memdef"
)

// Checkpoint support. TLB contents are carried verbatim (the underlying
// set-associative cache preserves per-set recency order); the MSHR is empty
// at any quiescent point — an outstanding miss implies a pending event — so
// only its entry count travels, as an assertion. Neither keeps event counts:
// those live in stats.Sim.

// SaveState writes the TLB's contents to w.
func (t *TLB) SaveState(w *checkpoint.Writer) {
	t.c.SaveState(w, func(w *checkpoint.Writer, vpn memdef.VPN, e Entry) {
		w.U64(uint64(vpn))
		w.U64(uint64(e.PFN))
		w.Bool(e.Writable)
	})
}

// RestoreState reads the state written by SaveState into t, which must have
// the same geometry.
func (t *TLB) RestoreState(r *checkpoint.Reader) {
	t.c.RestoreState(r, func(r *checkpoint.Reader) (memdef.VPN, Entry) {
		vpn := memdef.VPN(r.U64())
		e := Entry{PFN: memdef.PFN(r.U64()), Writable: r.Bool()}
		return vpn, e
	})
	t.recount()
}

// SaveState writes the MSHR's entry count to w. At a quiescent point no miss
// is outstanding; the count is asserted into the stream so a non-quiescent
// save fails at restore.
func (m *MSHR[W]) SaveState(w *checkpoint.Writer) {
	w.Int(m.pending.Len())
}

// RestoreState checks the entry count written by SaveState.
func (m *MSHR[W]) RestoreState(r *checkpoint.Reader) {
	if n := r.Int(); n != 0 {
		r.Failf("tlb: MSHR checkpointed with %d outstanding misses", n)
	}
}
