package service

import (
	"context"
	"errors"
	"sync"
)

// ErrQueueFull is the sentinel a push returns (possibly wrapped) when it
// cannot be admitted: the global backlog is full, or the submitting tenant
// is over its quota. The HTTP layer maps it to 429 + Retry-After.
var ErrQueueFull = errors.New("service: job queue full")

// fairQueue is the accepted-but-not-running backlog: a weighted fair-share
// scheduler over per-tenant FIFOs (stride scheduling). Each tenant carries
// a virtual time that advances by 1/weight per dispatched job, and Pop
// always serves the non-empty tenant with the smallest virtual time (ties
// break toward the lexically smaller tenant name, keeping the schedule
// deterministic). A tenant with weight 3 therefore gets three dispatch
// slots for every one a weight-1 tenant gets while both have work queued,
// and an idle tenant's unused share is redistributed rather than banked: on
// re-activation its virtual time is clamped forward to the queue's clock,
// so it cannot starve the others with accumulated credit. With a single
// tenant the schedule is plain FIFO.
//
// Admission control is two-level, shedding with errors that unwrap to
// ErrQueueFull (HTTP 429): a global depth bound, and an optional per-tenant
// quota that stops one tenant from occupying the whole backlog no matter
// its weight.
type fairQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	max    int
	quota  int // per-tenant queued cap; 0 = none
	weight map[string]float64
	ten    map[string]*tenantQ
	size   int
	clock  float64 // virtual time of the most recent dispatch
	closed bool
}

type tenantQ struct {
	items []*job
	vtime float64
}

// newFairQueue returns a backlog holding at most max jobs (minimum 1) with
// at most quota jobs per tenant (0 disables the quota). weights maps tenant
// name → relative share; missing or non-positive entries default to 1.
func newFairQueue(max, quota int, weights map[string]float64) *fairQueue {
	if max < 1 {
		max = 1
	}
	q := &fairQueue{
		max:    max,
		quota:  quota,
		weight: weights,
		ten:    make(map[string]*tenantQ),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *fairQueue) weightOf(tenant string) float64 {
	if w, ok := q.weight[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// Push admits one job under tenant, shedding when the queue is closed or
// full, or the tenant's quota is.
func (q *fairQueue) Push(tenant string, j *job) error {
	tenant = tenantOrDefault(tenant)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.size >= q.max {
		return ErrQueueFull
	}
	tq := q.ten[tenant]
	if tq == nil {
		tq = &tenantQ{}
		q.ten[tenant] = tq
	}
	if q.quota > 0 && len(tq.items) >= q.quota {
		return &TenantQuotaError{Tenant: tenant, Queued: len(tq.items)}
	}
	if len(tq.items) == 0 && tq.vtime < q.clock {
		// Re-activating after idleness: no banked credit.
		tq.vtime = q.clock
	}
	tq.items = append(tq.items, j)
	q.size++
	q.cond.Signal()
	return nil
}

// Pop blocks for the next job under the fair-share schedule. It returns
// ok=false once the queue is closed and drained, or when ctx ends first.
func (q *fairQueue) Pop(ctx context.Context) (*job, bool) {
	stop := context.AfterFunc(ctx, func() {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	})
	defer stop()
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.size > 0 {
			name, tq := q.pickLocked()
			j := tq.items[0]
			tq.items = tq.items[1:]
			q.size--
			q.clock = tq.vtime
			tq.vtime += 1 / q.weightOf(name)
			return j, true
		}
		if q.closed || ctx.Err() != nil {
			return nil, false
		}
		q.cond.Wait()
	}
}

// pickLocked selects the non-empty tenant with the smallest virtual time.
func (q *fairQueue) pickLocked() (string, *tenantQ) {
	var bestName string
	var best *tenantQ
	for name, tq := range q.ten {
		if len(tq.items) == 0 {
			continue
		}
		if best == nil || tq.vtime < best.vtime ||
			(tq.vtime == best.vtime && name < bestName) {
			bestName, best = name, tq
		}
	}
	return bestName, best
}

// Close stops admissions; queued jobs continue to drain through Pop.
func (q *fairQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Len reports the total queued job count.
func (q *fairQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// TenantQuotaError marks a push shed because one tenant exceeded its quota
// rather than because the whole queue is full. It unwraps to ErrQueueFull so
// both cases shed with 429.
type TenantQuotaError struct {
	Tenant string
	Queued int
}

func (e *TenantQuotaError) Error() string {
	return "service: tenant " + e.Tenant + " over queue quota"
}

func (e *TenantQuotaError) Unwrap() error { return ErrQueueFull }
