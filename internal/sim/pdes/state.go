package pdes

import (
	"idyll/internal/checkpoint"
	"idyll/internal/sim"
)

// Checkpoint support. A full drain is the strongest barrier there is: every
// engine's queue and every outbox is empty, so a quiescent cluster reduces
// to its per-domain clocks and counters plus the synchronization statistics.
// That is why system-level checkpoints land only at drain points — a
// mid-window snapshot would have to serialize staged message closures, which
// is impossible (see DESIGN.md "Checkpoint format & forking").

// AlignClocks advances every domain's engine to the cluster-wide maximum
// clock and returns it. A drained cluster leaves each domain's clock
// wherever its last event fired; before relaunching work (the phase barrier
// of a two-phase run) the clocks must agree, or a slow domain would post
// messages into a peer's past. Panics if anything is still pending.
func (c *Cluster) AlignClocks() sim.VTime {
	if c.Pending() != 0 {
		panic("pdes: AlignClocks with pending work")
	}
	var max sim.VTime
	for _, d := range c.domains {
		if now := d.eng.Now(); now > max {
			max = now
		}
	}
	for _, d := range c.domains {
		d.eng.AdvanceTo(max)
	}
	return max
}

// SaveState writes the cluster's quiescent state to w. It panics if any
// domain still has pending events or staged messages.
func (c *Cluster) SaveState(w *checkpoint.Writer) {
	if c.Pending() != 0 {
		panic("pdes: SaveState with pending events")
	}
	w.Int(len(c.domains))
	w.I64(int64(c.lookahead))
	for _, d := range c.domains {
		d.eng.SaveState(w)
	}
	w.U64(c.st.Windows)
	w.U64(c.st.Messages)
	w.Int(c.st.MaxBatch)
}

// RestoreState rebuilds the state written by SaveState into c, which must
// have the same domain layout (normally a freshly built cluster from the
// same machine and scheme — the domain count and lookahead derive from
// those, so matching configuration implies matching layout).
func (c *Cluster) RestoreState(r *checkpoint.Reader) {
	if n := r.Int(); n != len(c.domains) {
		r.Failf("pdes: %d domains in checkpoint, %d configured", n, len(c.domains))
		return
	}
	if la := r.I64(); la != int64(c.lookahead) {
		r.Failf("pdes: lookahead %d in checkpoint, %d configured", la, c.lookahead)
		return
	}
	for _, d := range c.domains {
		d.eng.RestoreState(r)
	}
	c.st.Windows = r.U64()
	c.st.Messages = r.U64()
	c.st.MaxBatch = r.Int()
}
