package walker

import "idyll/internal/checkpoint"

// Checkpoint support. A GMMU at a quiescent point has no walk in flight
// (walkers idle, queue empty — asserted by the Resource's own SaveState), so
// its state is the local page table and the page-walk cache contents in
// recency order; the walker pool only asserts its idleness into the stream.

// SaveState writes the GMMU's state to w.
func (g *GMMU) SaveState(w *checkpoint.Writer) {
	g.pt.SaveState(w)
	g.pwc.SaveState(w, func(w *checkpoint.Writer, k pwcKey, _ struct{}) {
		w.Int(k.level)
		w.U64(k.prefix)
	})
	g.walkers.SaveState(w)
}

// RestoreState reads the state written by SaveState into g, which must be
// freshly constructed from the same configuration.
func (g *GMMU) RestoreState(r *checkpoint.Reader) {
	g.pt.RestoreState(r)
	g.pwc.RestoreState(r, func(r *checkpoint.Reader) (pwcKey, struct{}) {
		k := pwcKey{level: r.Int(), prefix: r.U64()}
		return k, struct{}{}
	})
	g.walkers.RestoreState(r)
}
