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
// themselves, and the ring stores only its tail (tail.next is the head), so
// filling a bucket never allocates. Events beyond the ring horizon wait in
// a binary heap and migrate into buckets as the clock advances past their
// admission point; each event migrates at most once. A per-slot occupancy
// bitmap — one bit per non-empty bucket — lets the drain loop skip runs of
// empty cycles 64 at a time, so sparse stretches cost a few word tests
// rather than a per-cycle scan.
//
// Event nodes live by value in one slab and refer to each other by int32
// slab index: the ring's tails, the bucket links, the free list and the far
// heap hold indices, not pointers, so the garbage collector has nothing in
// them to scan. A node returns to the free list as soon as it fires.
// Scheduled events cannot be cancelled; a model that needs to abandon work
// checks a flag when the event fires.
package sim

import (
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
// earlier at the same cycle run first (stable FIFO within a cycle).
type eventNode struct {
	at   VTime
	seq  uint64
	fn   func()
	next int32 // slab index of the successor in its ring bucket's circular list
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
	// Recycled counts event nodes returned to the free list; PoolHits counts
	// schedules served from it (slab growth avoided).
	Recycled uint64
	PoolHits uint64
}

// Engine is the discrete-event simulation core. The zero value is an empty
// engine at cycle 0, as NewEngine returns.
type Engine struct {
	slab []eventNode
	free []int32 // slab indices of unused nodes
	far  []int32 // slab indices of events at >= winStart+ringWindow, a (at, seq) min-heap

	now VTime
	seq uint64

	// The ring covers cycles [winStart, winStart+ringWindow); slot is
	// cycle & (ringWindow-1). ring[slot] is the slab index of the tail of
	// that cycle's circular FIFO, meaningful only while the slot's occ bit
	// is set; every live ring event lies inside the window, so a non-empty
	// slot holds exactly one cycle's events. cursor is the lowest cycle that
	// may still hold undrained events; it never trails winStart. The two
	// arrays come last: they hold no pointers, so the collector stops
	// scanning an Engine before them.
	winStart VTime
	cursor   VTime
	ringLive int
	st       EngineStats
	running  bool
	ring     [ringWindow]int32
	occ      [ringWindow / 64]uint64
}

// NewEngine returns an engine positioned at cycle 0 with an empty queue.
func NewEngine() *Engine { return &Engine{} }

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
func (e *Engine) Schedule(delay VTime, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute time t, which must not be in the past.
func (e *Engine) ScheduleAt(t VTime, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	i := e.get()
	n := &e.slab[i]
	n.at = t
	n.seq = e.seq
	n.fn = fn
	e.seq++
	if t < e.winStart+ringWindow {
		e.st.RingScheduled++
		e.pushRing(i, n)
	} else {
		e.st.FarScheduled++
		e.pushFar(i)
	}
}

// get takes a node from the free list, or grows the slab by one.
func (e *Engine) get() int32 {
	if k := len(e.free) - 1; k >= 0 {
		i := e.free[k]
		e.free = e.free[:k]
		e.st.PoolHits++
		return i
	}
	e.slab = append(e.slab, eventNode{})
	return int32(len(e.slab) - 1)
}

// before reports whether node i orders strictly before node j: earlier
// time, then earlier schedule.
func (e *Engine) before(i, j int32) bool {
	a, b := &e.slab[i], &e.slab[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pushFar adds node i to the far heap.
func (e *Engine) pushFar(i int32) {
	h := append(e.far, i)
	k := len(h) - 1
	for k > 0 {
		p := (k - 1) / 2
		if !e.before(i, h[p]) {
			break
		}
		h[k] = h[p]
		k = p
	}
	h[k] = i
	e.far = h
}

// popFar removes and returns the far heap's earliest node.
func (e *Engine) popFar() int32 {
	h := e.far
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	k := 0
	for {
		c := 2*k + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && e.before(h[c+1], h[c]) {
			c++
		}
		if !e.before(h[c], last) {
			break
		}
		h[k] = h[c]
		k = c
	}
	if len(h) > 0 {
		h[k] = last
	}
	e.far = h
	return top
}

// pushRing appends node i, n, to its cycle's bucket. Only cycles inside
// the current window reach here, so a non-empty slot already holds events
// of n's cycle.
func (e *Engine) pushRing(i int32, n *eventNode) {
	s := int(uint64(n.at) & (ringWindow - 1))
	bit := uint64(1) << (uint(s) & 63)
	if e.occ[s>>6]&bit == 0 {
		n.next = i
		e.occ[s>>6] |= bit
	} else {
		tail := &e.slab[e.ring[s]]
		n.next = tail.next
		tail.next = i
	}
	e.ring[s] = i
	e.ringLive++
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
	for len(e.far) > 0 && e.slab[e.far[0]].at < horizon {
		i := e.popFar()
		e.pushRing(i, &e.slab[i])
		e.st.Migrated++
	}
}

// popRing removes and returns the earliest ring event at time <= limit
// (limit < 0 means no limit); ok is false if the ring has none. It advances
// cursor past empty cycles.
func (e *Engine) popRing(limit VTime) (i int32, ok bool) {
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
			return 0, false
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
		// schedule more work into it. Unlink the bucket's head.
		tail := &e.slab[e.ring[s]]
		head := tail.next
		if head == e.ring[s] {
			e.occ[s>>6] &^= 1 << (uint(s) & 63)
		} else {
			tail.next = e.slab[head].next
		}
		e.ringLive--
		return head, true
	}
	return 0, false
}

// popNext removes and returns the earliest event at time <= limit; ok is
// false if there is none. Ring events always precede heap events (the heap
// holds only times beyond the window), so the ring is authoritative while
// it has any.
func (e *Engine) popNext(limit VTime) (i int32, ok bool) {
	for {
		if e.ringLive > 0 {
			if i, ok := e.popRing(limit); ok {
				return i, true
			}
			if e.ringLive > 0 {
				return 0, false // limit cut inside the window
			}
			continue // ring went empty while scanning; consult the heap
		}
		if len(e.far) == 0 {
			return 0, false
		}
		t := e.slab[e.far[0]].at
		if limit >= 0 && t > limit {
			return 0, false
		}
		// Jump the window to the heap's minimum; its events migrate into
		// buckets and the next loop pass drains them in order.
		e.advanceWindow(t)
	}
}

// fireNext executes the earliest event with time <= limit and reports
// whether one ran. The window slides before the closure runs, so anything
// the closure schedules sees a fully migrated ring.
func (e *Engine) fireNext(limit VTime) bool {
	i, ok := e.popNext(limit)
	if !ok {
		return false
	}
	n := &e.slab[i]
	if n.at != e.now {
		e.now = n.at
		e.advanceWindow(n.at)
	}
	// Recycle the node before running fn, dropping its closure so captured
	// state is collectable as soon as fn returns.
	fn := n.fn
	n.fn = nil
	e.free = append(e.free, i)
	e.st.Recycled++
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

// Step executes the single earliest event, if any, and reports whether
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
		// ringLive > 0 guarantees an event inside [cursor, end), so the
		// scan above cannot fall through; this is unreachable.
		panic("sim: ring accounting out of sync")
	}
	if len(e.far) > 0 {
		return e.slab[e.far[0]].at, true
	}
	return 0, false
}

// RunBatch executes up to n events and reports whether events remain.
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
