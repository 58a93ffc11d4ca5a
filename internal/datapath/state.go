package datapath

import (
	"idyll/internal/cache"
	"idyll/internal/checkpoint"
)

// Checkpoint support: the per-CU L1 caches and the shared L2 carry their
// line contents (with dirty bits) in recency order. Hit/miss statistics
// accumulate in the run's one stats.Sim collector, serialized at the system
// level.

func encLine(w *checkpoint.Writer, ln uint64, st lineState) {
	w.U64(ln)
	w.Bool(st.dirty)
}

func decLine(r *checkpoint.Reader) (uint64, lineState) {
	ln := r.U64()
	return ln, lineState{dirty: r.Bool()}
}

// SaveState writes the hierarchy's cache contents to w.
func (h *Hierarchy) SaveState(w *checkpoint.Writer) {
	w.Int(len(h.l1))
	for _, c := range h.l1 {
		c.SaveState(w, encLine)
	}
	h.l2.SaveState(w, encLine)
}

// RestoreState reads the state written by SaveState into h, which must have
// the same geometry.
func (h *Hierarchy) RestoreState(r *checkpoint.Reader) {
	if n := r.Int(); n != len(h.l1) {
		r.Failf("datapath: %d L1 caches in checkpoint, %d configured", n, len(h.l1))
		return
	}
	for _, c := range h.l1 {
		c.RestoreState(r, decLine)
	}
	h.l2.RestoreState(r, decLine)
	h.recount()
}

// recount rebuilds the per-page residency records from the caches'
// contents. The rebuilt L1 mask is exact, a subset of the superset the
// saved run carried; flushes remove the same lines either way.
func (h *Hierarchy) recount() {
	h.resident.Clear()
	count := func(c *cache.SetAssoc[uint64, lineState]) {
		c.Range(func(ln uint64, _ lineState) bool {
			r, _ := h.resident.Put(ln >> h.pageLineShift)
			r.n++
			if c == h.l2 {
				r.l2 |= h.bit(ln)
			} else {
				r.l1 |= h.bit(ln)
			}
			return true
		})
	}
	count(h.l2)
	for _, c := range h.l1 {
		count(c)
	}
}
