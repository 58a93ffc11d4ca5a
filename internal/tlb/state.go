package tlb

import (
	"idyll/internal/checkpoint"
	"idyll/internal/memdef"
)

// Checkpoint support. TLB contents are carried verbatim (the underlying
// set-associative cache preserves per-set recency order); the MSHR is empty
// at any quiescent point — an outstanding miss implies a pending event — so
// only its counters travel.

// SaveState writes the TLB's contents and counters to w.
func (t *TLB) SaveState(w *checkpoint.Writer) {
	t.c.SaveState(w, func(w *checkpoint.Writer, vpn memdef.VPN, e Entry) {
		w.U64(uint64(vpn))
		w.U64(uint64(e.PFN))
		w.Bool(e.Writable)
	})
	w.U64(t.shootdowns)
	w.U64(t.shootdownHits)
	w.U64(t.flushedEntries)
}

// RestoreState reads the state written by SaveState into t, which must have
// the same geometry.
func (t *TLB) RestoreState(r *checkpoint.Reader) {
	t.c.RestoreState(r, func(r *checkpoint.Reader) (memdef.VPN, Entry) {
		vpn := memdef.VPN(r.U64())
		e := Entry{PFN: memdef.PFN(r.U64()), Writable: r.Bool()}
		return vpn, e
	})
	t.shootdowns = r.U64()
	t.shootdownHits = r.U64()
	t.flushedEntries = r.U64()
	t.recount()
}

// SaveState writes the MSHR's counters to w. At a quiescent point no miss is
// outstanding; the entry count is asserted into the stream so a
// non-quiescent save fails at restore.
func (m *MSHR[W]) SaveState(w *checkpoint.Writer) {
	w.Int(len(m.pending))
	w.U64(m.allocs)
	w.U64(m.merges)
	w.U64(m.full)
	w.U64(m.recycles)
}

// RestoreState reads the counters written by SaveState.
func (m *MSHR[W]) RestoreState(r *checkpoint.Reader) {
	if n := r.Int(); n != 0 {
		r.Failf("tlb: MSHR checkpointed with %d outstanding misses", n)
		return
	}
	m.allocs = r.U64()
	m.merges = r.U64()
	m.full = r.U64()
	m.recycles = r.U64()
}
