package interconnect

import (
	"idyll/internal/checkpoint"
	"idyll/internal/sim"
)

// Checkpoint support. At a quiescent point no message is on the wire (the
// delivery closures have all fired), but a link's serialization horizon can
// still sit beyond the drained clock — a backlog queued at the end of the
// run keeps nextFree in the future — so nextFree is state, not derivable.
// The link topology is fixed by configuration; only the per-link scalars
// travel: the horizon and the byte count, the one traffic counter a link
// keeps (the run's NVLink and PCIe totals are summed from it).

// SaveState writes the link's serialization horizon and byte count.
func (l *Link) SaveState(w *checkpoint.Writer) {
	w.I64(int64(l.nextFree))
	w.U64(l.bytesSent)
}

// RestoreState reads the state written by SaveState.
func (l *Link) RestoreState(r *checkpoint.Reader) {
	l.nextFree = sim.VTime(r.I64())
	l.bytesSent = r.U64()
}

// SaveState writes every link's state in fixed topology order: GPU→GPU by
// [from][to] skipping the diagonal, then GPU→CPU and CPU→GPU by GPU index.
func (n *Network) SaveState(w *checkpoint.Writer) {
	w.Int(n.numGPUs)
	for i := 0; i < n.numGPUs; i++ {
		for j := 0; j < n.numGPUs; j++ {
			if i != j {
				n.gpuGPU[i][j].SaveState(w)
			}
		}
		n.gpuCPU[i].SaveState(w)
		n.cpuGPU[i].SaveState(w)
	}
}

// RestoreState reads the state written by SaveState into a fabric of the
// same shape.
func (n *Network) RestoreState(r *checkpoint.Reader) {
	if g := r.Int(); g != n.numGPUs {
		r.Failf("interconnect: %d GPUs in checkpoint, %d configured", g, n.numGPUs)
		return
	}
	for i := 0; i < n.numGPUs; i++ {
		for j := 0; j < n.numGPUs; j++ {
			if i != j {
				n.gpuGPU[i][j].RestoreState(r)
			}
		}
		n.gpuCPU[i].RestoreState(r)
		n.cpuGPU[i].RestoreState(r)
	}
}
