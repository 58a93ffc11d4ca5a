package sim

import (
	"container/heap"
	"math/rand"
	"runtime"
	"testing"
)

// refEvent / refHeap / refEngine are the pre-calendar-queue engine: a single
// binary heap ordered by (time, seq). It is the ordering oracle for the
// differential tests — any divergence between it and Engine is a
// determinism bug in the two-tier queue.
type refEvent struct {
	at  VTime
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type refEngine struct {
	now   VTime
	seq   uint64
	queue refHeap
}

func (e *refEngine) Schedule(delay VTime, fn func()) {
	ev := &refEvent{at: e.now + delay, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
}

func (e *refEngine) RunUntil(limit VTime) {
	for len(e.queue) > 0 {
		next := e.queue[0]
		if limit >= 0 && next.at > limit {
			break
		}
		heap.Pop(&e.queue)
		e.now = next.at
		next.fn()
	}
}

// diffOp is one step of a randomized schedule script, interpreted identically
// against both engines.
type diffOp struct {
	delay  VTime // scheduling delay for this op's event
	nested VTime // if >= 0, the fired event schedules a child at this delay
}

// genOps builds a script whose delays straddle the bucket/heap horizon:
// mostly small (bucket path), some just around ringWindow (the migration
// edge), some far beyond it (heap path).
func genOps(r *rand.Rand, n int) []diffOp {
	ops := make([]diffOp, n)
	for i := range ops {
		ops[i] = diffOp{delay: diffDelay(r), nested: -1}
		if r.Intn(4) == 0 {
			ops[i].nested = diffDelay(r)
		}
	}
	return ops
}

func diffDelay(r *rand.Rand) VTime {
	switch r.Intn(10) {
	case 0, 1, 2, 3, 4: // dense near-future: the bucket fast path
		return VTime(r.Intn(64))
	case 5, 6: // mid-window
		return VTime(r.Intn(ringWindow))
	case 7, 8: // the horizon edge, both sides
		return ringWindow - 8 + VTime(r.Intn(16))
	default: // far future: heap path, exercises migration
		return ringWindow + VTime(r.Intn(4*ringWindow))
	}
}

// runDiff replays ops through both engines, interleaving RunUntil segments,
// and returns the two firing-order traces. Each fired event records (op
// index, time); nested children record (parent index + offset, time).
func runDiff(t *testing.T, seed int64, nOps int) (got, want [][2]int64) {
	ops := genOps(rand.New(rand.NewSource(seed)), nOps)

	{
		e := NewEngine()
		for i, op := range ops {
			i, op := i, op
			e.Schedule(op.delay, func() {
				got = append(got, [2]int64{int64(i), int64(e.Now())})
				if op.nested >= 0 {
					e.Schedule(op.nested, func() {
						got = append(got, [2]int64{int64(i) + 1_000_000, int64(e.Now())})
					})
				}
			})
		}
		// Run in limit segments so the horizon is crossed mid-run.
		for limit := VTime(ringWindow / 2); e.Pending() > 0; limit += ringWindow / 2 {
			e.RunUntil(limit)
		}
	}

	{
		e := &refEngine{}
		for i, op := range ops {
			i, op := i, op
			e.Schedule(op.delay, func() {
				want = append(want, [2]int64{int64(i), int64(e.now)})
				if op.nested >= 0 {
					e.Schedule(op.nested, func() {
						want = append(want, [2]int64{int64(i) + 1_000_000, int64(e.now)})
					})
				}
			})
		}
		for limit := VTime(ringWindow / 2); len(e.queue) > 0; limit += ringWindow / 2 {
			e.RunUntil(limit)
		}
	}
	return got, want
}

// TestEngineDifferentialVsHeap replays randomized schedule scripts — nested
// schedules, delays straddling the bucket/heap horizon, segmented RunUntil —
// through the calendar queue and the reference heap and requires identical
// firing orders.
func TestEngineDifferentialVsHeap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		got, want := runDiff(t, seed, 400)
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: divergence at firing %d: got (op %d, t=%d), want (op %d, t=%d)",
					seed, i, got[i][0], got[i][1], want[i][0], want[i][1])
			}
		}
	}
}

// TestEngineHorizonBoundary pins the bucket↔heap boundary cases: an event
// exactly at now+ringWindow goes to the heap and must still interleave
// correctly with ring events, including same-cycle FIFO after migration.
func TestEngineHorizonBoundary(t *testing.T) {
	e := NewEngine()
	var order []int
	// Beyond horizon: heap path (seq 0).
	e.Schedule(ringWindow, func() { order = append(order, 0) })
	// In-window event that advances the clock so the horizon slides and the
	// heap event migrates into a bucket.
	e.Schedule(10, func() {
		// Now ringWindow is inside the new window [10, 10+ringWindow):
		// this schedule appends to the same bucket the migrated event is in,
		// and must fire after it (lower seq first).
		e.ScheduleAt(ringWindow, func() { order = append(order, 1) })
	})
	e.Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("horizon interleave order = %v, want [0 1]", order)
	}
	if e.Now() != ringWindow {
		t.Fatalf("final time = %d, want %d", e.Now(), ringWindow)
	}
}

// TestEngineRunUntilAtHorizon checks that a limit cut between the window and
// a far-future event leaves the far event intact and the clock unmoved.
func TestEngineRunUntilAtHorizon(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(5, func() { fired++ })
	e.Schedule(2*ringWindow, func() { fired++ })
	e.RunUntil(ringWindow)
	if fired != 1 || e.Pending() != 1 {
		t.Fatalf("after limited run: fired=%d pending=%d, want 1/1", fired, e.Pending())
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %d, want 5 (last executed event)", e.Now())
	}
	e.Run()
	if fired != 2 || e.Pending() != 0 {
		t.Fatalf("after full run: fired=%d pending=%d, want 2/0", fired, e.Pending())
	}
}

// TestEngineStepAcrossHorizon drives Step one event at a time across a
// window jump.
func TestEngineStepAcrossHorizon(t *testing.T) {
	e := NewEngine()
	var times []VTime
	e.Schedule(1, func() { times = append(times, e.Now()) })
	e.Schedule(3*ringWindow, func() { times = append(times, e.Now()) })
	for e.Step() {
	}
	if len(times) != 2 || times[0] != 1 || times[1] != 3*ringWindow {
		t.Fatalf("step times = %v, want [1 %d]", times, 3*ringWindow)
	}
}

// TestEnginePendingIsLive checks the O(1) pending counter against schedule /
// fire transitions on both tiers.
func TestEnginePendingIsLive(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.Schedule(2*ringWindow, func() {})
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.RunUntil(ringWindow)
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after the near event fired, want 1", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after run, want 0", e.Pending())
	}
}

// TestEngineFiredEventsReleaseClosures schedules a large batch of events
// whose closures pin big buffers and fires them all: the slab keeps every
// node for reuse, so the buffers are collectable only because firing
// drops each node's closure.
func TestEngineFiredEventsReleaseClosures(t *testing.T) {
	e := NewEngine()
	const n = 2000
	for i := 0; i < n; i++ {
		buf := make([]byte, 64<<10)
		e.Schedule(VTime(100+i%32), func() { _ = buf[0] })
	}
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e.Run()
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	if e.Pending() != 0 || e.Fired() != n {
		t.Fatalf("pending = %d, fired = %d after run, want 0 and %d", e.Pending(), e.Fired(), n)
	}
	// The ~125 MB of closure-captured buffers must be gone while the engine,
	// and its slab of n nodes, is still live.
	if freed := int64(before.HeapInuse) - int64(after.HeapInuse); freed < int64(n)*(64<<10)/2 {
		t.Fatalf("firing released only %d bytes of ~%d buffered", freed, n*(64<<10))
	}
	runtime.KeepAlive(e)
}

// TestEngineWindowLapReusesBuckets walks the clock through several full
// window laps so ring slots are reused for new cycles, checking order and
// count the whole way.
func TestEngineWindowLapReusesBuckets(t *testing.T) {
	e := NewEngine()
	fired := 0
	var last VTime = -1
	var step func()
	step = func() {
		if e.Now() < last {
			t.Fatalf("time went backwards: %d after %d", e.Now(), last)
		}
		last = e.Now()
		fired++
		if fired < 3000 {
			// 37 and 4096 are coprime, so successive events sweep every slot.
			e.Schedule(37, step)
		}
	}
	e.Schedule(0, step)
	e.Run()
	if fired != 3000 {
		t.Fatalf("fired %d, want 3000", fired)
	}
	if want := VTime(2999 * 37); e.Now() != want {
		t.Fatalf("final time %d, want %d", e.Now(), want)
	}
}

// TestEnginePoolRoundTrip checks the pool counters: after a burst of
// schedule/fire cycles every node but the first few comes from the free
// list.
func TestEnginePoolRoundTrip(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 1000; i++ {
		e.Schedule(VTime(i%8), func() {})
		if i%16 == 15 {
			e.Run()
		}
	}
	e.Run()
	st := e.Stats()
	if st.Fired != 1000 {
		t.Fatalf("fired = %d, want 1000", st.Fired)
	}
	if st.PoolHits < 900 {
		t.Fatalf("pool hits = %d of 1000 schedules; pooling is not engaging", st.PoolHits)
	}
	if st.Recycled != 1000 {
		t.Fatalf("recycled = %d, want 1000", st.Recycled)
	}
}

// TestEngineWarmScheduleFireAllocatesNothing pins the slab contract: once
// the slab, free list and far heap have grown to a workload's high-water
// mark, scheduling and firing events on both tiers allocates nothing.
func TestEngineWarmScheduleFireAllocatesNothing(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	burst := func() {
		for i := 0; i < 256; i++ {
			e.Schedule(VTime(i%64), fn)
		}
		for i := 0; i < 16; i++ {
			e.Schedule(VTime(2*ringWindow+i), fn)
		}
		e.Run()
	}
	burst() // warm: grow the slab, free list and far heap once
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("warm schedule/fire allocated %.1f times per burst, want 0", allocs)
	}
}
