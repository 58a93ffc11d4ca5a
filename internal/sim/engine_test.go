package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []VTime
	for _, d := range []VTime{30, 10, 20, 10, 0} {
		d := d
		e.Schedule(d, func() { order = append(order, e.Now()) })
	}
	end := e.Run()
	if end != 30 {
		t.Fatalf("final time = %d, want 30", end)
	}
	want := []VTime{0, 10, 10, 20, 30}
	if len(order) != len(want) {
		t.Fatalf("ran %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("event %d at %d, want %d", i, order[i], want[i])
		}
	}
}

func TestEngineSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-cycle order %v not FIFO", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []VTime
	e.Schedule(1, func() {
		hits = append(hits, e.Now())
		e.Schedule(2, func() {
			hits = append(hits, e.Now())
			e.Schedule(0, func() { hits = append(hits, e.Now()) })
		})
	})
	e.Run()
	want := []VTime{1, 3, 3}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hits = %v, want %v", hits, want)
		}
	}
}

func TestEngineZeroDelayRunsAfterCurrentCycleEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(0, func() {
		order = append(order, "a")
		e.Schedule(0, func() { order = append(order, "c") })
	})
	e.Schedule(0, func() { order = append(order, "b") })
	e.Run()
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Fatalf("order = %q, want abc", got)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for _, d := range []VTime{5, 10, 15, 20} {
		e.Schedule(d, func() { count++ })
	}
	e.RunUntil(12)
	if count != 2 {
		t.Fatalf("ran %d events by t=12, want 2", count)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if count != 4 {
		t.Fatalf("ran %d events total, want 4", count)
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(1, func() { n++ })
	e.Schedule(2, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatalf("after one step n = %d, want 1", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("after two steps n = %d, want 2", n)
	}
	if e.Step() {
		t.Fatal("Step on empty queue reported an event")
	}
}

// RunBatch must fire events in exactly the order Run would — batching is a
// cancellation point, never a semantic change.
func TestEngineRunBatchMatchesRun(t *testing.T) {
	build := func() (*Engine, *[]VTime) {
		e := NewEngine()
		order := &[]VTime{}
		var chain func()
		chain = func() {
			*order = append(*order, e.Now())
			if len(*order) < 20 {
				e.Schedule(VTime(len(*order)%3), chain)
			}
		}
		for _, d := range []VTime{30, 10, 20, 10, 0} {
			e.Schedule(d, chain)
		}
		return e, order
	}

	ref, refOrder := build()
	ref.Run()

	for _, batch := range []int{1, 3, 7, 1000} {
		e, order := build()
		steps := 0
		for e.RunBatch(batch) {
			steps++
			if steps > 10000 {
				t.Fatalf("RunBatch(%d) did not terminate", batch)
			}
		}
		if len(*order) != len(*refOrder) {
			t.Fatalf("RunBatch(%d) fired %d events, Run fired %d",
				batch, len(*order), len(*refOrder))
		}
		for i := range *refOrder {
			if (*order)[i] != (*refOrder)[i] {
				t.Fatalf("RunBatch(%d) event %d at t=%d, Run had t=%d",
					batch, i, (*order)[i], (*refOrder)[i])
			}
		}
		if e.Now() != ref.Now() || e.Fired() != ref.Fired() {
			t.Fatalf("RunBatch(%d) end state (now=%d fired=%d) != Run (now=%d fired=%d)",
				batch, e.Now(), e.Fired(), ref.Now(), ref.Fired())
		}
	}
}

func TestEngineRunBatchReportsPending(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(VTime(i), func() {})
	}
	if !e.RunBatch(3) {
		t.Fatal("RunBatch(3) with 2 events left reported drained")
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	if e.RunBatch(3) {
		t.Fatal("RunBatch reported more work after draining the queue")
	}
	if e.RunBatch(3) {
		t.Fatal("RunBatch on an empty queue reported work")
	}
}

func TestEnginePanicsOnNegativeDelay(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative delay")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestEnginePanicsOnPastSchedule(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic scheduling in the past")
			}
		}()
		e.ScheduleAt(5, func() {})
	})
	e.Run()
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and all of them fire.
func TestEngineOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		var times []VTime
		for _, d := range delays {
			e.Schedule(VTime(d), func() { times = append(times, e.Now()) })
		}
		e.Run()
		if len(times) != len(delays) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineNextAt(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextAt(); ok {
		t.Fatal("empty engine reported a next event")
	}
	e.Schedule(ringWindow+50, func() {}) // far heap only
	if at, ok := e.NextAt(); !ok || at != ringWindow+50 {
		t.Fatalf("NextAt = %d,%v; want far event at %d", at, ok, ringWindow+50)
	}
	e.Schedule(7, func() {}) // ring beats far
	if at, ok := e.NextAt(); !ok || at != 7 {
		t.Fatalf("NextAt = %d,%v; want ring event at 7", at, ok)
	}
	e.RunUntil(7)
	if at, ok := e.NextAt(); !ok || at != ringWindow+50 {
		t.Fatalf("NextAt after drain = %d,%v; want %d", at, ok, ringWindow+50)
	}
	e.Run()
	if _, ok := e.NextAt(); ok {
		t.Fatal("drained engine reported a next event")
	}
}

// TestEngineRunUntilThenScheduleJustPast is the cursor-clamp regression: a
// RunUntil cut used to leave the ring cursor up to 63 cycles past the limit
// (bitmap word skipping), so an event scheduled into that overshoot span —
// exactly what the parallel engine's barrier injection does at window edges —
// landed behind the cursor and was silently dropped a full ring lap later.
func TestEngineRunUntilThenScheduleJustPast(t *testing.T) {
	for gap := VTime(1); gap <= 70; gap++ {
		e := NewEngine()
		e.Schedule(5, func() {}) // something to drain before the cut
		const limit = 100
		e.RunUntil(limit)
		fired := false
		e.ScheduleAt(limit+gap, func() { fired = true })
		e.RunUntil(limit + gap)
		if !fired {
			t.Fatalf("event at limit+%d never fired after a RunUntil(%d) cut", gap, limit)
		}
		if e.Now() != limit+gap {
			t.Fatalf("clock at %d, want %d", e.Now(), limit+gap)
		}
	}
}
