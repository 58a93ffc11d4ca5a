// Package sim provides the deterministic discrete-event simulation engine
// that drives every timed component in the IDYLL reproduction: a two-tier
// calendar event queue with stable FIFO ordering among same-cycle events, a
// multi-server resource with a bounded FIFO queue (used for walker threads
// and host walkers), and a deterministic random number generator with a Zipf
// sampler for workload generation.
//
// All simulated time is expressed in VTime cycles of the 1 GHz GPU clock.
// The engine is strictly single-threaded: events are closures executed in
// (time, insertion) order, so a run with a fixed seed is bit-reproducible.
//
// # Queue structure
//
// The queue is split by distance from the clock. Events within ringWindow
// cycles of the current time land in a ring of per-cycle FIFO buckets —
// the overwhelmingly common Schedule(0..k) case is an O(1) append, and
// firing is an O(1) pop off the current cycle's bucket. Each bucket is an
// intrusive circular singly-linked list threaded through the event nodes
// themselves, and the ring stores only its tail pointer (tail.next is the
// head), so an idle engine costs one word per ring slot and filling a
// bucket never allocates. Events beyond the ring horizon wait in a binary
// heap and migrate into buckets as the clock advances past their admission
// point; each event migrates at most once. A per-slot occupancy bitmap —
// one bit per non-empty bucket — lets the drain loop skip runs of empty
// cycles 64 at a time, so sparse stretches cost a few word tests rather
// than a per-cycle scan.
//
// Event nodes are pooled on a free list and recycled as soon as they fire
// or are cancelled. EventIDs carry a generation counter that is bumped on
// every recycle, so a stale EventID held across a node's reuse can never
// cancel the node's next occupant.
package sim

import (
	"container/heap"
	"fmt"
	"math/bits"
)

// VTime is a point in simulated time, in cycles of the 1 GHz GPU clock.
type VTime int64

// ringWindow is the span of the per-cycle bucket ring, in cycles. Must be a
// power of two and a multiple of 64 (the occupancy bitmap word size). 4096
// covers every latency constant in the model (full page walks ~400 cycles,
// DRAM + interconnect round trips ~10^3); only long-tail timeouts take the
// heap path.
const ringWindow = 4096

// eventNode is a scheduled closure. seq breaks ties so that events scheduled
// earlier at the same cycle run first (stable FIFO within a cycle). Nodes
// live on the engine's free list between uses; gen distinguishes a node's
// successive occupants so stale EventIDs cannot cancel a reused node.
type eventNode struct {
	at   VTime
	seq  uint64
	fn   func()
	gen  uint64
	next *eventNode // successor in its ring bucket's circular list
	pos  int32      // index within the far heap
	loc  int8       // locNone, locRing, locFar
}

const (
	locNone int8 = iota
	locRing
	locFar
)

// eventHeap orders far-future events by (time, sequence).
type eventHeap []*eventNode

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = int32(i)
	h[j].pos = int32(j)
}

func (h *eventHeap) Push(x any) {
	n := x.(*eventNode)
	n.pos = int32(len(*h))
	*h = append(*h, n)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// EventID identifies a scheduled event so it can be cancelled. The zero
// value is inert. An EventID whose event has fired (or been cancelled) is
// also inert: the generation check makes Cancel a no-op even if the
// underlying node has been recycled for a different event.
type EventID struct {
	n   *eventNode
	gen uint64
}

// EngineStats are the engine's internal counters, exposed for profiling the
// event path (see Engine.Stats).
type EngineStats struct {
	// Fired is how many events have executed.
	Fired uint64
	// RingScheduled / FarScheduled split schedules by which tier admitted
	// them: the O(1) bucket ring vs the far-future heap.
	RingScheduled uint64
	FarScheduled  uint64
	// Migrated counts heap events moved into the ring as the clock advanced.
	Migrated uint64
	// Cancelled counts events removed by Cancel before firing.
	Cancelled uint64
	// Recycled counts event nodes returned to the free list; PoolHits counts
	// schedules served from it (allocations avoided).
	Recycled uint64
	PoolHits uint64
}

// Engine is the discrete-event simulation core. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now VTime
	seq uint64

	// The ring covers cycles [winStart, winStart+ringWindow); slot is
	// cycle & (ringWindow-1). ring[slot] is the tail of that cycle's
	// circular FIFO, nil when empty; every live ring event lies inside the
	// window, so a non-empty slot holds exactly one cycle's events. cursor
	// is the lowest cycle that may still hold undrained events; it never
	// trails winStart. occ has one bit per slot, set iff the slot is
	// non-empty.
	winStart VTime
	cursor   VTime
	ring     []*eventNode
	occ      []uint64
	ringLive int

	far eventHeap // events at >= winStart+ringWindow, live only

	pool    []*eventNode
	st      EngineStats
	running bool
}

// NewEngine returns an engine positioned at cycle 0 with an empty queue.
func NewEngine() *Engine {
	return &Engine{
		ring: make([]*eventNode, ringWindow),
		occ:  make([]uint64, ringWindow/64),
	}
}

// Now reports the current simulated time.
func (e *Engine) Now() VTime { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.st.Fired }

// Stats returns a snapshot of the engine's internal counters.
func (e *Engine) Stats() EngineStats { return e.st }

// Pending reports how many events are scheduled but not yet executed.
func (e *Engine) Pending() int { return e.ringLive + len(e.far) }

// Schedule runs fn delay cycles from now. A delay of 0 runs fn later in the
// current cycle, after all previously scheduled same-cycle events. It panics
// on negative delays, which always indicate a modelling bug.
func (e *Engine) Schedule(delay VTime, fn func()) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute time t, which must not be in the past.
func (e *Engine) ScheduleAt(t VTime, fn func()) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	n := e.get()
	n.at = t
	n.seq = e.seq
	n.fn = fn
	e.seq++
	if t < e.winStart+ringWindow {
		e.st.RingScheduled++
		e.pushRing(n)
	} else {
		e.st.FarScheduled++
		n.loc = locFar
		heap.Push(&e.far, n)
	}
	return EventID{n: n, gen: n.gen}
}

// get takes a node from the free list, or allocates one.
func (e *Engine) get() *eventNode {
	if len(e.pool) > 0 {
		n := e.pool[len(e.pool)-1]
		e.pool[len(e.pool)-1] = nil
		e.pool = e.pool[:len(e.pool)-1]
		e.st.PoolHits++
		return n
	}
	return &eventNode{}
}

// recycle returns a node to the free list, bumping its generation so any
// outstanding EventID for the old occupant goes inert, and dropping fn so
// its captured state is immediately collectable.
func (e *Engine) recycle(n *eventNode) {
	n.fn = nil
	n.loc = locNone
	n.gen++
	e.pool = append(e.pool, n)
	e.st.Recycled++
}

// pushRing appends n to its cycle's bucket. Only cycles inside the current
// window reach here, so a non-empty slot already holds events of n's cycle.
func (e *Engine) pushRing(n *eventNode) {
	s := int(uint64(n.at) & (ringWindow - 1))
	if tail := e.ring[s]; tail == nil {
		n.next = n
		e.occ[s>>6] |= 1 << (uint(s) & 63)
	} else {
		n.next = tail.next
		tail.next = n
	}
	e.ring[s] = n
	n.loc = locRing
	e.ringLive++
}

// unlinkRing removes n from its bucket, given its predecessor prev in the
// circular list (prev == n when n is the only node), and clears the slot's
// occupancy bit if the bucket empties.
func (e *Engine) unlinkRing(n, prev *eventNode) {
	s := int(uint64(n.at) & (ringWindow - 1))
	switch {
	case prev == n:
		e.ring[s] = nil
		e.occ[s>>6] &^= 1 << (uint(s) & 63)
	case e.ring[s] == n:
		prev.next = n.next
		e.ring[s] = prev
	default:
		prev.next = n.next
	}
	n.loc = locNone
	e.ringLive--
}

// Cancel removes a scheduled event. The node is recycled immediately and its
// closure released, so a cancelled event holds no memory while waiting for
// its cycle to pass. Cancelling an already-fired or already-cancelled event
// (or the zero EventID) is a no-op. A ring event is unlinked by walking its
// bucket from the head to find its predecessor, so the cost is the number
// of same-cycle events scheduled before it; the model itself never cancels,
// and the singly-linked bucket keeps the schedule/fire path to one pointer
// per node.
func (e *Engine) Cancel(id EventID) {
	n := id.n
	if n == nil || n.gen != id.gen {
		return
	}
	switch n.loc {
	case locRing:
		prev := e.ring[int(uint64(n.at)&(ringWindow-1))]
		for prev.next != n {
			prev = prev.next
		}
		e.unlinkRing(n, prev)
	case locFar:
		heap.Remove(&e.far, int(n.pos))
	default:
		return
	}
	e.st.Cancelled++
	e.recycle(n)
}

// advanceWindow slides the ring window forward to start at t and migrates
// newly admitted heap events into their buckets. Migration pops in (time,
// seq) order and bucket appends preserve it, so FIFO-within-cycle survives;
// any event scheduled into these cycles afterwards has a higher seq and
// lands behind the migrated ones.
func (e *Engine) advanceWindow(t VTime) {
	if t <= e.winStart {
		return
	}
	e.winStart = t
	if e.cursor < t {
		e.cursor = t
	}
	horizon := t + ringWindow
	for len(e.far) > 0 && e.far[0].at < horizon {
		n := heap.Pop(&e.far).(*eventNode)
		e.pushRing(n)
		e.st.Migrated++
	}
}

// popRing removes and returns the earliest live ring event at time <= limit
// (limit < 0 means no limit), or nil if the ring has none. It advances
// cursor past empty cycles.
func (e *Engine) popRing(limit VTime) *eventNode {
	end := e.winStart + ringWindow
	for e.ringLive > 0 && e.cursor < end {
		if limit >= 0 && e.cursor > limit {
			// Word skips below may have overshot the limit by up to 63
			// cycles. Pull the cursor back to the first unexamined cycle:
			// events scheduled into (limit, cursor) after this cut — the
			// PDES barrier-injection pattern — must not be stranded behind
			// it. Cycles at or below limit were drained, so limit+1 is
			// exact, never lossy.
			e.cursor = limit + 1
			return nil
		}
		s := int(uint64(e.cursor) & (ringWindow - 1))
		w := e.occ[s>>6] >> (uint(s) & 63)
		if w == 0 {
			// Nothing in this bitmap word at or after cursor: skip to the
			// next word boundary.
			e.cursor += VTime(64 - (s & 63))
			continue
		}
		if d := bits.TrailingZeros64(w); d > 0 {
			e.cursor += VTime(d)
			continue // re-check limit at the new cycle
		}
		// The cursor stays on this cycle: the event about to fire may
		// schedule more work into it.
		tail := e.ring[s]
		head := tail.next
		e.unlinkRing(head, tail)
		return head
	}
	return nil
}

// popNext removes and returns the earliest live event at time <= limit, or
// nil. Ring events always precede heap events (the heap holds only times
// beyond the window), so the ring is authoritative while it has any.
func (e *Engine) popNext(limit VTime) *eventNode {
	for {
		if e.ringLive > 0 {
			if n := e.popRing(limit); n != nil {
				return n
			}
			if e.ringLive > 0 {
				return nil // limit cut inside the window
			}
			continue // ring went empty while scanning; consult the heap
		}
		if len(e.far) == 0 {
			return nil
		}
		t := e.far[0].at
		if limit >= 0 && t > limit {
			return nil
		}
		// Jump the window to the heap's minimum; its events migrate into
		// buckets and the next loop pass drains them in order.
		e.advanceWindow(t)
	}
}

// fireNext executes the earliest live event with time <= limit and reports
// whether one ran. The window slides before the closure runs, so anything
// the closure schedules sees a fully migrated ring.
func (e *Engine) fireNext(limit VTime) bool {
	n := e.popNext(limit)
	if n == nil {
		return false
	}
	if n.at != e.now {
		e.now = n.at
		e.advanceWindow(n.at)
	}
	fn := n.fn
	e.recycle(n)
	e.st.Fired++
	fn()
	return true
}

// Run executes events until the queue is empty and returns the final time.
func (e *Engine) Run() VTime {
	return e.RunUntil(-1)
}

// RunUntil executes events with time <= limit (limit < 0 means no limit) and
// returns the time of the last executed event, or the current time if none
// executed. The engine's clock is left at the last executed event's time.
func (e *Engine) RunUntil(limit VTime) VTime {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.fireNext(limit) {
	}
	return e.now
}

// Step executes the single earliest live event, if any, and reports whether
// one was executed.
func (e *Engine) Step() bool {
	return e.fireNext(-1)
}

// NextAt reports the time of the earliest scheduled event without executing
// or removing anything — the peek the pdes cluster's coordinator needs to
// place the next synchronization window. It scans the occupancy bitmap
// from the cursor for the first non-empty bucket, and falls back to the far
// heap's minimum.
func (e *Engine) NextAt() (VTime, bool) {
	if e.ringLive > 0 {
		end := e.winStart + ringWindow
		for c := e.cursor; c < end; {
			s := int(uint64(c) & (ringWindow - 1))
			w := e.occ[s>>6] >> (uint(s) & 63)
			if w == 0 {
				c += VTime(64 - (s & 63))
				continue
			}
			return c + VTime(bits.TrailingZeros64(w)), true
		}
		// ringLive > 0 guarantees a live event inside [cursor, end), so the
		// scan above cannot fall through; this is unreachable.
		panic("sim: ring accounting out of sync")
	}
	if len(e.far) > 0 {
		return e.far[0].at, true
	}
	return 0, false
}

// RunBatch executes up to n events and reports whether live events remain.
// Events fire in exactly the order Run would fire them — batch boundaries
// cannot reorder anything — so callers can interleave work (cancellation
// checks, progress) between batches without perturbing determinism.
func (e *Engine) RunBatch(n int) bool {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	defer func() { e.running = false }()
	for i := 0; i < n; i++ {
		if !e.fireNext(-1) {
			return false
		}
	}
	return e.Pending() > 0
}
