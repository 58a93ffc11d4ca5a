package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// qjob is a queue item for the scheduler tests; its id names the tenant
// (or item) it was pushed for.
func qjob(id string) *job { return &job{id: id} }

func TestFairQueueWeightedShares(t *testing.T) {
	q := newFairQueue(100, 0, map[string]float64{"alice": 3, "bob": 1})
	for i := 0; i < 20; i++ {
		if err := q.Push("alice", qjob("a")); err != nil {
			t.Fatal(err)
		}
		if err := q.Push("bob", qjob("b")); err != nil {
			t.Fatal(err)
		}
	}
	// While both tenants have work queued, a 3:1 weight ratio must yield a
	// 3:1 dispatch ratio over any window that is a multiple of 4.
	counts := map[string]int{}
	for i := 0; i < 16; i++ {
		j, ok := q.Pop(context.Background())
		if !ok {
			t.Fatal("queue closed early")
		}
		counts[j.id]++
	}
	if counts["a"] != 12 || counts["b"] != 4 {
		t.Fatalf("dispatch split = %v, want a:12 b:4", counts)
	}
}

func TestFairQueueEqualWeightsAlternate(t *testing.T) {
	q := newFairQueue(100, 0, nil)
	for i := 0; i < 6; i++ {
		q.Push("x", qjob("x"))
		q.Push("y", qjob("y"))
	}
	var seq string
	for i := 0; i < 12; i++ {
		j, _ := q.Pop(context.Background())
		seq += j.id
	}
	if seq != "xyxyxyxyxyxy" {
		t.Fatalf("equal-weight schedule = %q, want strict alternation", seq)
	}
}

func TestFairQueueNoBankedCredit(t *testing.T) {
	q := newFairQueue(100, 0, nil)
	// bob works alone for a while, advancing his virtual time.
	for i := 0; i < 8; i++ {
		q.Push("bob", qjob("b"))
		q.Pop(context.Background())
	}
	// alice arrives late: she must NOT get 8 consecutive slots of "credit"
	// for her idle period — her vtime clamps forward to the queue clock.
	for i := 0; i < 4; i++ {
		q.Push("alice", qjob("a"))
		q.Push("bob", qjob("b"))
	}
	var seq string
	for i := 0; i < 8; i++ {
		j, _ := q.Pop(context.Background())
		seq += j.id
	}
	// alice's clamped vtime lands mid-stride, giving her exactly one extra
	// leading slot before strict alternation (the trailing b drains bob's
	// last item after alice's four are spent) — crucially NOT an 8-slot
	// burst of banked credit.
	if seq != "aabababb" {
		t.Fatalf("late-arriving tenant schedule = %q, want aabababb", seq)
	}
}

func TestFairQueueGlobalBoundSheds(t *testing.T) {
	q := newFairQueue(2, 0, nil)
	q.Push("t", qjob("1"))
	q.Push("t", qjob("2"))
	err := q.Push("t", qjob("3"))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestFairQueueTenantQuotaSheds(t *testing.T) {
	q := newFairQueue(100, 2, nil)
	q.Push("greedy", qjob("1"))
	q.Push("greedy", qjob("2"))
	err := q.Push("greedy", qjob("3"))
	var qe *TenantQuotaError
	if !errors.As(err, &qe) || qe.Tenant != "greedy" {
		t.Fatalf("err = %v, want TenantQuotaError for greedy", err)
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatal("quota error must unwrap to ErrQueueFull (429 mapping)")
	}
	// Other tenants are unaffected by one tenant's quota.
	if err := q.Push("modest", qjob("1")); err != nil {
		t.Fatalf("unrelated tenant shed: %v", err)
	}
}

func TestFairQueueCloseDrains(t *testing.T) {
	q := newFairQueue(10, 0, nil)
	q.Push("t", qjob("queued-before-close"))
	q.Close()
	if err := q.Push("t", qjob("late")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("push after close = %v, want ErrQueueFull", err)
	}
	j, ok := q.Pop(context.Background())
	if !ok || j.id != "queued-before-close" {
		t.Fatalf("queued item lost on close: %v %v", j, ok)
	}
	if _, ok := q.Pop(context.Background()); ok {
		t.Fatal("Pop returned an item from a drained closed queue")
	}
}

func TestFairQueuePopRespectsContext(t *testing.T) {
	q := newFairQueue(10, 0, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, ok := q.Pop(ctx); ok {
		t.Fatal("Pop fabricated an item")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Pop ignored context cancellation")
	}
}

// A standalone daemon schedules its own backlog by fair share, as the
// coordinator does: with one worker held by a gate job, jobs queued by
// tenants a, a, b run as a, b, a rather than first-come-first-served.
func TestServerFairSharesTenants(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	srv, _ := newTestServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, spec CanonicalSpec,
			p func(int, int, string)) ([]byte, error) {
			if spec.Tenant == "gate" {
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			} else {
				mu.Lock()
				order = append(order, spec.Tenant)
				mu.Unlock()
			}
			return []byte(`{}`), nil
		},
	})
	submit := func(tenant string, seed uint64) *job {
		t.Helper()
		canon, err := cellSpec(seed).Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		canon.Tenant = tenant
		j, _, err := srv.submit(canon)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	submit("gate", 1)
	waitFor(t, func() bool { return srv.QueueLen() == 0 }) // gate job running
	var queued []*job
	for i, tenant := range []string{"a", "a", "b"} {
		queued = append(queued, submit(tenant, uint64(10+i)))
	}
	close(gate)
	for _, j := range queued {
		select {
		case <-j.done:
		case <-time.After(5 * time.Second):
			t.Fatal("queued job never ran")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if got := strings.Join(order, ","); got != "a,b,a" {
		t.Fatalf("run order = %s, want a,b,a (fair share, not FIFO)", got)
	}
}
