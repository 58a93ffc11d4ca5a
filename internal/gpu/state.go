package gpu

import (
	"idyll/internal/checkpoint"
	"idyll/internal/memdef"
	"idyll/internal/sim"
)

// Checkpoint support. A GPU at a quiescent point has no access in flight
// (the MSHR's own SaveState asserts it), so its state is the translation and
// data structures plus the per-page bookkeeping tables. Tables are serialized
// in ascending VPN order so the byte stream is deterministic. Optional
// components (IRMB, PRT) are presence-gated: the flag in the stream must
// agree with the scheme the restoring system was built from, which the
// content-addressed checkpoint key guarantees.

// SaveState writes the GPU's full architectural state to w.
func (g *GPU) SaveState(w *checkpoint.Writer) {
	w.Int(len(g.l1tlbs))
	for _, t := range g.l1tlbs {
		t.SaveState(w)
	}
	g.l2tlb.SaveState(w)
	g.mshr.SaveState(w)
	g.gmmu.SaveState(w)
	g.data.SaveState(w)

	w.Bool(g.irmb != nil)
	if g.irmb != nil {
		g.irmb.SaveState(w)
	}
	w.Bool(g.prt != nil)
	if g.prt != nil {
		g.prt.SaveState(w)
	}

	w.U32(uint32(g.counters.Len()))
	for _, vpn := range g.counters.SortedKeys() {
		n, _ := g.counters.Get(vpn)
		w.U64(uint64(vpn))
		w.Int(n)
	}
	w.U32(uint32(g.irmbReceipt.Len()))
	for _, vpn := range g.irmbReceipt.SortedKeys() {
		t, _ := g.irmbReceipt.Get(vpn)
		w.U64(uint64(vpn))
		w.I64(int64(t))
	}
	w.U32(uint32(g.pendingWB.Len()))
	for _, vpn := range g.pendingWB.SortedKeys() {
		w.U64(uint64(vpn))
	}
	w.U32(uint32(g.shotDown.Len()))
	for _, vpn := range g.shotDown.SortedKeys() {
		w.U64(uint64(vpn))
	}
	w.U32(uint32(g.invalEpoch.Len()))
	for _, vpn := range g.invalEpoch.SortedKeys() {
		e, _ := g.invalEpoch.Get(vpn)
		w.U64(uint64(vpn))
		w.U32(e)
	}
	w.I64(int64(g.doneAt))
}

// RestoreState reads the state written by SaveState into g, which must be
// freshly constructed from the same machine and scheme.
func (g *GPU) RestoreState(r *checkpoint.Reader) {
	if n := r.Int(); n != len(g.l1tlbs) {
		r.Failf("gpu: %d L1 TLBs in checkpoint, %d configured", n, len(g.l1tlbs))
		return
	}
	for _, t := range g.l1tlbs {
		t.RestoreState(r)
	}
	g.l2tlb.RestoreState(r)
	g.mshr.RestoreState(r)
	g.gmmu.RestoreState(r)
	g.data.RestoreState(r)

	if has := r.Bool(); has != (g.irmb != nil) {
		r.Failf("gpu: IRMB presence %v in checkpoint, %v configured", has, g.irmb != nil)
		return
	}
	if g.irmb != nil {
		g.irmb.RestoreState(r)
	}
	if has := r.Bool(); has != (g.prt != nil) {
		r.Failf("gpu: PRT presence %v in checkpoint, %v configured", has, g.prt != nil)
		return
	}
	if g.prt != nil {
		g.prt.RestoreState(r)
	}

	g.counters.Clear()
	for i, n := 0, r.Count(16); i < n && r.Err() == nil; i++ {
		vpn := memdef.VPN(r.U64())
		g.counters.Set(vpn, r.Int())
	}
	g.irmbReceipt.Clear()
	for i, n := 0, r.Count(16); i < n && r.Err() == nil; i++ {
		vpn := memdef.VPN(r.U64())
		g.irmbReceipt.Set(vpn, sim.VTime(r.I64()))
	}
	g.pendingWB.Clear()
	for i, n := 0, r.Count(8); i < n && r.Err() == nil; i++ {
		g.pendingWB.Put(memdef.VPN(r.U64()))
	}
	g.shotDown.Clear()
	for i, n := 0, r.Count(8); i < n && r.Err() == nil; i++ {
		g.shotDown.Put(memdef.VPN(r.U64()))
	}
	g.invalEpoch.Clear()
	for i, n := 0, r.Count(12); i < n && r.Err() == nil; i++ {
		vpn := memdef.VPN(r.U64())
		g.invalEpoch.Set(vpn, r.U32())
	}
	g.doneAt = sim.VTime(r.I64())
}
