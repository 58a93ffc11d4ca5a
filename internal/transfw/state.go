package transfw

import "idyll/internal/checkpoint"

// Checkpoint support: the FIFO order is behaviour-visible (displacement
// picks the oldest fingerprint), so entries are carried verbatim oldest
// first. The PRT keeps no event counts: the GPU counts its lookups and hits
// into stats.Sim.

// SaveState writes the PRT's fingerprints to w.
func (p *PRT) SaveState(w *checkpoint.Writer) {
	w.Int(Capacity)
	w.U32(uint32(len(p.fifo)))
	for _, e := range p.fifo {
		w.U16(e.fp)
		w.U8(uint8(e.gpu))
	}
}

// RestoreState reads the state written by SaveState into p.
func (p *PRT) RestoreState(r *checkpoint.Reader) {
	if c := r.Int(); c != Capacity {
		r.Failf("transfw: PRT capacity %d in checkpoint, want %d", c, Capacity)
		return
	}
	n := r.Count(3)
	if n > Capacity {
		r.Failf("transfw: PRT checkpoint holds %d entries, capacity %d", n, Capacity)
		return
	}
	p.fifo = p.fifo[:0]
	for i := 0; i < n; i++ {
		e := entry{fp: r.U16(), gpu: int8(r.U8())}
		p.fifo = append(p.fifo, e)
	}
}
