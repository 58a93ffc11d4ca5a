package sim

// Resource models a pool of identical servers fronted by a bounded FIFO
// queue — the shape of the GMMU's page-table walker (8 threads behind a
// 64-entry page-walk queue) and of the host-side walker.
//
// A job acquires a server by calling Acquire with a closure; the closure
// receives a release function that must be called exactly once when the job's
// (possibly multi-event) work is done. If all servers are busy the job waits
// in the FIFO. If the FIFO is full Acquire reports false and the caller must
// retry later (backpressure).
type Resource struct {
	engine   *Engine
	servers  int
	busy     int
	capacity int // queue capacity; <0 means unbounded
	// queue[head:] holds the waiting jobs in FIFO order. dispatch advances
	// head rather than shifting the slice; Acquire compacts a full slice
	// whose consumed front is at least half of it, so a queued job costs
	// O(1) amortized.
	queue []func(release func())
	head  int

	// dispatchFn is the Schedule target for every release, bound once so
	// releasing never allocates a method-value closure.
	dispatchFn func()
	// relFree recycles release states (and their bound closures) between
	// jobs; see makeRelease.
	relFree []*releaseState

	// OnIdle, if non-nil, is invoked whenever a server frees and the queue is
	// empty — i.e. the resource has spare capacity. The IRMB uses this hook to
	// drain merged invalidation entries "when the page table walker is
	// available" (§6.3).
	OnIdle func()
}

// releaseState is one pooled release callback. fn is built once, bound to
// the state, and handed to every job the state serves.
type releaseState struct {
	r        *Resource
	released bool
	fn       func()
}

// NewResource returns a resource with the given number of servers and queue
// capacity (queueCap < 0 means unbounded).
func NewResource(engine *Engine, servers, queueCap int) *Resource {
	if servers <= 0 {
		panic("sim: resource needs at least one server")
	}
	r := &Resource{engine: engine, servers: servers, capacity: queueCap}
	r.dispatchFn = r.dispatch
	if queueCap > 0 {
		r.queue = make([]func(release func()), 0, queueCap)
	}
	return r
}

// Idle reports whether at least one server is free and nothing is queued.
func (r *Resource) Idle() bool { return r.busy < r.servers && r.queued() == 0 }

// queued reports how many jobs wait for a server.
func (r *Resource) queued() int { return len(r.queue) - r.head }

// Acquire requests a server for job. It reports false (and does not retain
// job) if the wait queue is full. Otherwise job will eventually run with a
// release function that must be called exactly once.
func (r *Resource) Acquire(job func(release func())) bool {
	if job == nil {
		panic("sim: nil resource job")
	}
	if r.busy < r.servers && r.queued() == 0 {
		r.busy++
		job(r.makeRelease())
		return true
	}
	if r.capacity >= 0 && r.queued() >= r.capacity {
		return false
	}
	if len(r.queue) == cap(r.queue) && r.head > 0 && 2*r.head >= len(r.queue) {
		n := copy(r.queue, r.queue[r.head:])
		clear(r.queue[n:])
		r.queue, r.head = r.queue[:n], 0
	}
	r.queue = append(r.queue, job)
	return true
}

// makeRelease hands out the single-use release callback for a running job,
// drawing from the state pool. A state returns to the pool when released, so
// a double release is detected for as long as the state has not been handed
// to a later job (which covers the realistic bug: calling release twice in
// the same completion path).
func (r *Resource) makeRelease() func() {
	var s *releaseState
	if n := len(r.relFree); n > 0 {
		s = r.relFree[n-1]
		r.relFree[n-1] = nil
		r.relFree = r.relFree[:n-1]
		s.released = false
	} else {
		s = &releaseState{r: r}
		s.fn = func() {
			if s.released {
				panic("sim: double release of resource server")
			}
			s.released = true
			s.r.relFree = append(s.r.relFree, s)
			// Releasing and redispatching happens as a fresh event so that the
			// releasing job's stack unwinds first; this keeps call chains
			// shallow and ordering intuitive (same-cycle FIFO).
			s.r.engine.Schedule(0, s.r.dispatchFn)
		}
	}
	return s.fn
}

// dispatch hands a freed server to the next queued job, or fires OnIdle.
func (r *Resource) dispatch() {
	r.busy--
	if r.queued() > 0 {
		next := r.queue[r.head]
		r.queue[r.head] = nil
		if r.head++; r.head == len(r.queue) {
			r.queue, r.head = r.queue[:0], 0
		}
		r.busy++
		next(r.makeRelease())
		return
	}
	if r.OnIdle != nil && r.busy < r.servers {
		r.OnIdle()
	}
}
