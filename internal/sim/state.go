package sim

import "idyll/internal/checkpoint"

// Checkpoint support. Events are Go closures and cannot be serialized, so
// engine state is only checkpointable at quiescent points — Pending() == 0 —
// where the whole queue is empty and the engine reduces to a clock, a
// sequence counter, and its statistics. The system layer guarantees
// quiescence by draining the run to completion before checkpointing (see
// system.Checkpoint); these methods enforce it again locally so a misuse
// fails loudly instead of silently dropping events.

// SaveState writes the engine's quiescent state to w. It panics if events
// are still pending: a checkpoint that dropped them could never replay
// byte-identically.
func (e *Engine) SaveState(w *checkpoint.Writer) {
	if e.Pending() != 0 {
		panic("sim: SaveState with pending events")
	}
	w.I64(int64(e.now))
	w.U64(e.seq)
	// The free-list length travels so a restored engine reproduces the same
	// pool-hit sequence; the nodes themselves are interchangeable blanks.
	w.U32(uint32(len(e.pool)))
	w.U64(e.st.Fired)
	w.U64(e.st.RingScheduled)
	w.U64(e.st.FarScheduled)
	w.U64(e.st.Migrated)
	w.U64(e.st.Cancelled)
	w.U64(e.st.Recycled)
	w.U64(e.st.PoolHits)
}

// RestoreState rebuilds the state written by SaveState into e, which must be
// quiescent (normally a freshly constructed engine). The clock resumes at
// the checkpointed time: the ring window and cursor realign to it. A
// quiescent ring is all empty buckets with a clear bitmap, so nothing else
// needs resetting.
func (e *Engine) RestoreState(r *checkpoint.Reader) {
	if e.Pending() != 0 {
		r.Failf("sim: RestoreState into an engine with pending events")
		return
	}
	now := VTime(r.I64())
	if now < e.now {
		r.Failf("sim: checkpoint clock %d behind engine clock %d", now, e.now)
		return
	}
	e.now = now
	e.winStart = now
	e.cursor = now
	e.seq = r.U64()
	poolLen := int(r.U32())
	if poolLen > 1<<22 {
		r.Failf("sim: implausible free-list length %d", poolLen)
		return
	}
	for len(e.pool) < poolLen {
		e.pool = append(e.pool, &eventNode{})
	}
	e.st.Fired = r.U64()
	e.st.RingScheduled = r.U64()
	e.st.FarScheduled = r.U64()
	e.st.Migrated = r.U64()
	e.st.Cancelled = r.U64()
	e.st.Recycled = r.U64()
	e.st.PoolHits = r.U64()
}

// AdvanceTo moves an idle engine's clock forward to t without firing
// anything — the phase barrier between a warmup drain and the remainder of a
// run, where every domain must resume from the same cycle. Panics if events
// are pending (they would be skipped) or t is in the past.
func (e *Engine) AdvanceTo(t VTime) {
	if e.Pending() != 0 {
		panic("sim: AdvanceTo with pending events")
	}
	if t < e.now {
		panic("sim: AdvanceTo into the past")
	}
	e.now = t
	e.winStart = t
	e.cursor = t
}

// SaveState writes the resource's occupancy to w. At a quiescent point no
// server is held and nothing waits in the queue, so the pool carries no
// state; both conditions are asserted into the stream so a non-quiescent
// save is caught at restore time. Walk rejections are counted by the caller
// into stats.Sim.
func (r *Resource) SaveState(w *checkpoint.Writer) {
	w.Int(r.busy)
	w.Int(r.queued())
}

// RestoreState checks the occupancy written by SaveState.
func (r *Resource) RestoreState(rd *checkpoint.Reader) {
	if busy := rd.Int(); busy != 0 {
		rd.Failf("sim: resource checkpointed with %d busy servers", busy)
		return
	}
	if queued := rd.Int(); queued != 0 {
		rd.Failf("sim: resource checkpointed with %d queued jobs", queued)
	}
}
