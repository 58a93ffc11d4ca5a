package sim

import (
	"testing"
	"testing/quick"
)

// holdFor acquires the resource and holds a server for d cycles.
func holdFor(e *Engine, r *Resource, d VTime, done func()) bool {
	return r.Acquire(func(release func()) {
		e.Schedule(d, func() {
			release()
			if done != nil {
				done()
			}
		})
	})
}

func TestResourceServesUpToCapacityConcurrently(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2, -1)
	var finish []VTime
	for i := 0; i < 4; i++ {
		holdFor(e, r, 10, func() { finish = append(finish, e.Now()) })
	}
	e.Run()
	// 2 servers, 4 jobs of 10 cycles: first two finish at 10, next two at 20.
	want := []VTime{10, 10, 20, 20}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1, -1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		r.Acquire(func(release func()) {
			order = append(order, i)
			e.Schedule(1, release)
		})
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("service order %v not FIFO", order)
		}
	}
}

func TestResourceBoundedQueueRejects(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1, 2)
	accepted := 0
	for i := 0; i < 5; i++ {
		if holdFor(e, r, 10, nil) {
			accepted++
		}
	}
	// 1 running + 2 queued = 3 accepted, 2 rejected.
	if accepted != 3 {
		t.Fatalf("accepted %d jobs, want 3", accepted)
	}
	e.Run()
	if r.busy != 0 || len(r.queue) != 0 {
		t.Fatalf("resource not drained: busy=%d queue=%d", r.busy, len(r.queue))
	}
}

func TestResourceOnIdleFiresWhenDrained(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2, -1)
	idleCalls := 0
	r.OnIdle = func() { idleCalls++ }
	for i := 0; i < 3; i++ {
		holdFor(e, r, 5, nil)
	}
	e.Run()
	// OnIdle fires on each release that leaves the queue empty: the releases
	// at t=5 (one of them drains the queue into the free server; the other
	// finds the queue empty) and the final release at t=10.
	if idleCalls == 0 {
		t.Fatal("OnIdle never fired")
	}
	if !r.Idle() {
		t.Fatal("resource should be idle after drain")
	}
}

func TestResourceDoubleReleasePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1, -1)
	r.Acquire(func(release func()) {
		e.Schedule(1, func() {
			release()
			defer func() {
				if recover() == nil {
					t.Error("no panic on double release")
				}
			}()
			release()
		})
	})
	e.Run()
}

// Property: with any job durations, every accepted job eventually completes
// and the number of simultaneously held servers never exceeds the pool size.
func TestResourceNeverOversubscribedProperty(t *testing.T) {
	prop := func(durations []uint8, servers8 uint8) bool {
		servers := int(servers8%4) + 1
		e := NewEngine()
		r := NewResource(e, servers, -1)
		completed := 0
		inFlight, peak := 0, 0
		for _, d := range durations {
			d := VTime(d % 20)
			r.Acquire(func(release func()) {
				inFlight++
				if inFlight > peak {
					peak = inFlight
				}
				e.Schedule(d, func() {
					inFlight--
					completed++
					release()
				})
			})
		}
		e.Run()
		return completed == len(durations) && peak <= servers
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestResourceFIFOAcrossQueueReuse: with arrivals interleaved with
// departures, so the queue's consumed front is compacted and reused,
// accepted jobs are still served in arrival order, and a bounded queue's
// backing array stays within twice its capacity.
func TestResourceFIFOAcrossQueueReuse(t *testing.T) {
	for _, capacity := range []int{4, -1} {
		e := NewEngine()
		r := NewResource(e, 1, capacity)
		rng := NewRand(7)
		var accepted, served []int
		at := VTime(0)
		for i := 0; i < 500; i++ {
			i, hold := i, VTime(1+rng.Intn(5))
			at += VTime(rng.Intn(4))
			e.ScheduleAt(at, func() {
				if r.Acquire(func(release func()) {
					served = append(served, i)
					e.Schedule(hold, release)
				}) {
					accepted = append(accepted, i)
				}
			})
		}
		e.Run()
		if len(served) != len(accepted) || len(accepted) < 100 {
			t.Fatalf("capacity %d: %d accepted, %d served", capacity, len(accepted), len(served))
		}
		for k := range served {
			if served[k] != accepted[k] {
				t.Fatalf("capacity %d: job %d served at position %d, accepted order %v", capacity, served[k], k, accepted[:k+1])
			}
		}
		if capacity > 0 && cap(r.queue) > 2*capacity {
			t.Fatalf("bounded queue grew to %d slots for capacity %d", cap(r.queue), capacity)
		}
	}
}
