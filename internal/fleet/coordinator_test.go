package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"idyll/internal/service"
)

// testWorker is one fleet worker for coordinator tests: a real
// service.Server with a counting stub runner and the peer-fill hooks wired,
// served over httptest.
type testWorker struct {
	id     string
	srv    *service.Server
	hs     *httptest.Server
	filler *Filler
	runs   atomic.Int64
}

func newTestWorker(t *testing.T, id string) *testWorker {
	t.Helper()
	w := &testWorker{id: id, filler: NewFiller("")}
	srv, err := service.NewServer(service.Config{
		Workers: 2,
		Runner: func(ctx context.Context, spec service.CanonicalSpec,
			progress func(int, int, string)) ([]byte, error) {
			w.runs.Add(1)
			h, err := spec.Hash()
			if err != nil {
				return nil, err
			}
			progress(1, 1, spec.App)
			// Deterministic bytes per spec, as the real runner guarantees.
			return []byte(fmt.Sprintf(`{"hash":%q,"seed":%d}`, h, spec.Options.Seed)), nil
		},
		PeerFill:     w.filler.ResultFill,
		FleetID:      id,
		FleetVersion: VersionString,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.srv = srv
	w.hs = httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx)
		w.hs.Close()
	})
	return w
}

func newTestFleet(t *testing.T, cfg Config, n int) (*Coordinator, *service.Client, []*testWorker) {
	t.Helper()
	workers := make([]*testWorker, n)
	for i := range workers {
		workers[i] = newTestWorker(t, fmt.Sprintf("w%d", i+1))
		cfg.Workers = append(cfg.Workers, WorkerAddr{ID: workers[i].id, URL: workers[i].hs.URL})
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 50 * time.Millisecond
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		coord.Drain(ctx)
		hs.Close()
	})
	return coord, service.NewClient(hs.URL), workers
}

func cellSpec(seed uint64) service.JobSpec {
	return service.JobSpec{
		Kind: "cell", App: "PR", Scheme: "idyll",
		Options: json.RawMessage(fmt.Sprintf(
			`{"cus_per_gpu":2,"accesses_per_cu":50,"seed":%d,"counter_threshold":1}`, seed)),
	}
}

func TestCoordinatorRelaysAndCaches(t *testing.T) {
	coord, c, workers := newTestFleet(t, Config{}, 2)
	ctx := context.Background()

	st, err := c.SubmitAndWait(ctx, cellSpec(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != service.StatusDone {
		t.Fatalf("status = %s (%s)", st.Status, st.Error)
	}
	if total := workers[0].runs.Load() + workers[1].runs.Load(); total != 1 {
		t.Fatalf("fleet ran the job %d times, want 1", total)
	}
	if len(st.Result) == 0 {
		t.Fatal("no result relayed")
	}
	// The coordinator tracked who holds the result; with Replicas=2 both
	// workers should hold it after replication.
	if got := len(coord.Copysets().Holders(st.Hash)); got != 2 {
		t.Fatalf("copyset size = %d, want 2 (computed + replica)", got)
	}

	// Resubmission: answered from the coordinator's own cache, no extra run.
	st2, err := c.SubmitAndWait(ctx, cellSpec(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatal("resubmission not served from coordinator cache")
	}
	if string(st2.Result) != string(st.Result) {
		t.Fatal("cached bytes differ from computed bytes")
	}
	if total := workers[0].runs.Load() + workers[1].runs.Load(); total != 1 {
		t.Fatal("cache hit still reached a worker")
	}
}

func TestCoordinatorRoutingIsDeterministic(t *testing.T) {
	_, c, workers := newTestFleet(t, Config{Replicas: 1}, 3)
	ctx := context.Background()

	// The same spec must always land on the same worker; distinct specs
	// spread. Run a batch and compare against the rendezvous ranking.
	for seed := uint64(1); seed <= 6; seed++ {
		if _, err := c.SubmitAndWait(ctx, cellSpec(seed), nil); err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	for _, w := range workers {
		total += w.runs.Load()
	}
	if total != 6 {
		t.Fatalf("ran %d jobs, want 6 (no duplicate routing)", total)
	}
	// Replay the batch: every result is now coordinator-cached, so the
	// distribution must not move.
	before := []int64{workers[0].runs.Load(), workers[1].runs.Load(), workers[2].runs.Load()}
	for seed := uint64(1); seed <= 6; seed++ {
		if _, err := c.SubmitAndWait(ctx, cellSpec(seed), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range workers {
		if w.runs.Load() != before[i] {
			t.Fatalf("replay recomputed on %s", w.id)
		}
	}
}

func TestCoordinatorPeerFillAfterReplication(t *testing.T) {
	coord, c, workers := newTestFleet(t, Config{Replicas: 2}, 2)
	ctx := context.Background()

	st, err := c.SubmitAndWait(ctx, cellSpec(42), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Replication pushed the result to the second-ranked worker via its
	// POST /v1/cache/fill, which exercises that worker's peer-fill client:
	// exactly one worker computed, and exactly one peer-filled.
	var computed, filled *testWorker
	for _, w := range workers {
		if w.runs.Load() == 1 {
			computed = w
		}
		if w.srv.Metrics().Counter("peer_fills") == 1 {
			filled = w
		}
	}
	if computed == nil || filled == nil || computed == filled {
		t.Fatalf("computed=%v filled=%v; want one of each",
			computed != nil, filled != nil)
	}
	// The replica genuinely holds the bytes: fetch straight from its cache.
	data, ok, err := service.NewClient(filled.hs.URL).CacheGet(ctx, st.Hash)
	if err != nil || !ok {
		t.Fatalf("replica cache miss: ok=%v err=%v", ok, err)
	}
	if string(data) != string(st.Result) {
		t.Fatal("replica bytes differ from the relayed result")
	}
	_ = coord
}

func TestCoordinatorReroutesOnWorkerDeath(t *testing.T) {
	coord, c, workers := newTestFleet(t, Config{Replicas: 1, FailLimit: 1}, 2)
	ctx := context.Background()

	// Find which worker seed 7 routes to, then kill it before submitting.
	hash := mustHash(t, cellSpec(7))
	first := Rank(hash, []string{"w1", "w2"})[0]
	for _, w := range workers {
		if w.id == first {
			w.hs.CloseClientConnections()
			w.hs.Close()
		}
	}

	st, err := c.SubmitAndWait(ctx, cellSpec(7), nil)
	if err != nil {
		t.Fatalf("job lost to worker death: %v", err)
	}
	if st.Status != service.StatusDone {
		t.Fatalf("status = %s (%s)", st.Status, st.Error)
	}
	if reroutes := coord.Server().Metrics().Counter("fleet_reroutes"); reroutes < 1 {
		t.Fatal("re-route not recorded")
	}
	// The dead worker was marked down via dispatch feedback (FailLimit 1).
	for _, wk := range coord.Members().Snapshot() {
		if wk.ID == first && wk.State == "alive" {
			t.Fatalf("dead worker still alive in membership: %+v", wk)
		}
	}
}

func TestCoordinatorDeterministicFailureDoesNotReroute(t *testing.T) {
	// A worker whose runner fails deterministically must fail the job once,
	// not burn through every worker.
	boom := errors.New("deterministic model error")
	var runs atomic.Int64
	cfg := Config{Replicas: 1}
	workers := make([]*testWorker, 0, 2)
	for i := 1; i <= 2; i++ {
		w := &testWorker{id: fmt.Sprintf("w%d", i), filler: NewFiller("")}
		srv, err := service.NewServer(service.Config{
			Workers: 1,
			Runner: func(context.Context, service.CanonicalSpec,
				func(int, int, string)) ([]byte, error) {
				runs.Add(1)
				return nil, boom
			},
			FleetID:      w.id,
			FleetVersion: VersionString,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.srv = srv
		w.hs = httptest.NewServer(srv.Handler())
		t.Cleanup(w.hs.Close)
		workers = append(workers, w)
		cfg.Workers = append(cfg.Workers, WorkerAddr{ID: w.id, URL: w.hs.URL})
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		coord.Drain(ctx)
		hs.Close()
	})

	st, err := service.NewClient(hs.URL).SubmitAndWait(context.Background(), cellSpec(9), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != service.StatusFailed || !strings.Contains(st.Error, "deterministic model error") {
		t.Fatalf("status = %s (%s), want failed with the model error", st.Status, st.Error)
	}
	if runs.Load() != 1 {
		t.Fatalf("deterministic failure ran %d times, want 1 (no re-route)", runs.Load())
	}
}

func TestCoordinatorFleetEndpoints(t *testing.T) {
	coord, c, _ := newTestFleet(t, Config{}, 2)
	ctx := context.Background()

	// Wait for a probe round so states settle to alive.
	deadline := time.Now().Add(5 * time.Second)
	for {
		coord.Members().ProbeOnce(ctx)
		snap := coord.Members().Snapshot()
		if len(snap) == 2 && snap[0].State == "alive" && snap[1].State == "alive" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never probed alive: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var status StatusResponse
	if err := getJSON(t, c.Base()+"/v1/fleet/status", &status); err != nil {
		t.Fatal(err)
	}
	if status.Version != VersionString || len(status.Workers) != 2 {
		t.Fatalf("status = %+v", status)
	}
	if status.Workers[0].ID != "w1" || status.Workers[1].ID != "w2" {
		t.Fatalf("workers not sorted by ID: %+v", status.Workers)
	}

	// Rollup metrics: run one job, then expect fleet_ sums and worker_
	// breakdown lines, stably ordered.
	if _, err := c.SubmitAndWait(ctx, cellSpec(3), nil); err != nil {
		t.Fatal(err)
	}
	text1, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fleet_workers_alive 2", "fleet_jobs_completed 1",
		`worker_jobs_completed{worker="w`, "idylld_jobs_completed 1"} {
		if !strings.Contains(text1, want) {
			t.Fatalf("rollup missing %q:\n%s", want, text1)
		}
	}
	text2, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lineOrder(text1) != lineOrder(text2) {
		t.Fatalf("rollup line order unstable:\n%s\nvs\n%s", text1, text2)
	}
}

func TestCoordinatorJoinVersionGate(t *testing.T) {
	coord, c, _ := newTestFleet(t, Config{}, 1)
	base := c.Base()

	// Incompatible version: refused.
	var rejected bool
	err := postJSON(t, base+"/v1/fleet/join",
		JoinRequest{ID: "wX", URL: "http://127.0.0.1:1", Version: "idyll-fleet/2"}, nil)
	if err != nil {
		rejected = true
	}
	if !rejected {
		t.Fatal("incompatible join accepted")
	}

	// Compatible version: joins.
	var resp JoinResponse
	if err := postJSON(t, base+"/v1/fleet/join",
		JoinRequest{ID: "w9", URL: "http://127.0.0.1:1", Version: VersionString}, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("join response = %+v", resp)
	}
	if _, ok := coord.Members().Get("w9"); !ok {
		t.Fatal("joined worker missing from membership")
	}
}

func TestCoordinatorTenantQuotaSheds(t *testing.T) {
	// A gated runner keeps jobs queued so the quota engages.
	gate := make(chan struct{})
	w := &testWorker{id: "w1", filler: NewFiller("")}
	srv, err := service.NewServer(service.Config{
		Workers: 1,
		Runner: func(ctx context.Context, _ service.CanonicalSpec,
			_ func(int, int, string)) ([]byte, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return []byte(`{}`), nil
		},
		FleetID:      "w1",
		FleetVersion: VersionString,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.srv = srv
	w.hs = httptest.NewServer(srv.Handler())
	t.Cleanup(func() { close(gate); w.hs.Close() })

	coord, err := NewCoordinator(Config{
		Workers:     []WorkerAddr{{ID: "w1", URL: w.hs.URL}},
		TenantQuota: 1,
		Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		coord.Drain(ctx)
		hs.Close()
	})

	ctx := context.Background()
	greedy := service.NewClient(hs.URL,
		service.WithTenant("greedy"), service.WithRetry(service.NoRetry()))
	// The first submission occupies the single dispatcher; wait for it to
	// leave the queue so the second deterministically lands in the one
	// quota'd slot. The third must then shed 429.
	if _, err := greedy.Submit(ctx, cellSpec(1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for coord.Server().QueueLen() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never picked up the first job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := greedy.Submit(ctx, cellSpec(2)); err != nil {
		t.Fatal(err)
	}
	_, last := greedy.Submit(ctx, cellSpec(3))
	var ae *service.APIError
	if !errors.As(last, &ae) || ae.Status != 429 {
		t.Fatalf("third submission error = %v, want 429", last)
	}
	// A different tenant still gets in.
	modest := service.NewClient(hs.URL,
		service.WithTenant("modest"), service.WithRetry(service.NoRetry()))
	if _, err := modest.Submit(ctx, cellSpec(4)); err != nil {
		t.Fatalf("unrelated tenant shed: %v", err)
	}
}

// With zero routable workers and a LocalRunner configured, the coordinator
// runs the job itself (degraded mode) instead of failing it, and counts the
// fallback in /metrics.
func TestCoordinatorDegradedLocalRun(t *testing.T) {
	var local atomic.Int64
	coord, err := NewCoordinator(Config{
		ProbeInterval: time.Hour, // keep the probe loop out of the way
		LocalRunner: func(ctx context.Context, spec service.CanonicalSpec,
			progress func(int, int, string)) ([]byte, error) {
			local.Add(1)
			h, err := spec.Hash()
			if err != nil {
				return nil, err
			}
			return []byte(fmt.Sprintf(`{"hash":%q}`, h)), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		coord.Drain(ctx)
		hs.Close()
	})

	st, err := service.NewClient(hs.URL).SubmitAndWait(context.Background(), cellSpec(11), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != service.StatusDone {
		t.Fatalf("status = %s (%s), want done via degraded-local", st.Status, st.Error)
	}
	if local.Load() != 1 {
		t.Fatalf("local runner ran %d times, want 1", local.Load())
	}
	if got := coord.Server().Metrics().Counter("fleet_degraded_local_runs"); got != 1 {
		t.Fatalf("fleet_degraded_local_runs = %d, want 1", got)
	}
}

// Without a LocalRunner the same situation still fails cleanly.
func TestCoordinatorNoWorkersNoLocalRunnerFails(t *testing.T) {
	coord, err := NewCoordinator(Config{ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		coord.Drain(ctx)
		hs.Close()
	})
	st, err := service.NewClient(hs.URL).SubmitAndWait(context.Background(), cellSpec(12), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != service.StatusFailed || !strings.Contains(st.Error, "no routable worker") {
		t.Fatalf("status = %s (%s), want failed with no routable worker", st.Status, st.Error)
	}
}

// setClock replaces the membership's cooldown clock.
func setClock(m *Membership, now func() time.Time) {
	m.mu.Lock()
	m.now = now
	m.mu.Unlock()
}

// An open breaker keeps a suspect worker out of routing until the cooldown
// elapses, then nextTarget releases exactly one half-open trial dispatch,
// and a success returns the worker to the routable pool.
func TestCoordinatorHalfOpenTrialDispatch(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Workers:         []WorkerAddr{{ID: "w1", URL: "http://127.0.0.1:1"}},
		FailLimit:       10,
		ProbeInterval:   time.Hour,
		BreakerCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		coord.Drain(ctx)
	})

	coord.Members().MarkFailed("w1") // suspect, breaker open
	hash := mustHash(t, cellSpec(7))
	if tgt, _ := coord.nextTarget(hash, map[string]bool{}); tgt != nil {
		t.Fatalf("open breaker received traffic: %s", tgt.ID)
	}
	if got := coord.Server().Metrics().Counter("fleet_breaker_trips"); got != 1 {
		t.Fatalf("fleet_breaker_trips = %d, want 1", got)
	}

	// Let the cooldown elapse via the membership's clock seam.
	setClock(coord.Members(), func() time.Time { return time.Now().Add(2 * time.Hour) })
	tgt, trial := coord.nextTarget(hash, map[string]bool{})
	if tgt == nil || tgt.ID != "w1" || !trial {
		t.Fatalf("half-open trial not released: %v (trial=%v)", tgt, trial)
	}
	// The single trial is reserved; a second concurrent job gets nothing.
	if tgt, _ := coord.nextTarget(hash, map[string]bool{}); tgt != nil {
		t.Fatal("second concurrent half-open trial released")
	}
	coord.Members().MarkSucceeded("w1")
	if len(coord.Members().Routable()) != 1 {
		t.Fatal("worker not routable after successful trial")
	}
}

// Regression: a half-open trial whose dispatch is cancelled by the job's
// own context is neither a failure nor a success. It must release the
// trial — before the fix the member stayed half-open and no later job got
// a trial until a healthy probe.
func TestCoordinatorCancelledTrialIsReleased(t *testing.T) {
	gate := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // a worker that never answers
		case <-gate:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(func() { close(gate); hs.Close() })
	coord, err := NewCoordinator(Config{
		Workers:         []WorkerAddr{{ID: "w1", URL: hs.URL}},
		ProbeInterval:   time.Hour,
		BreakerCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		coord.Drain(ctx)
	})

	coord.Members().MarkFailed("w1")
	setClock(coord.Members(), func() time.Time { return time.Now().Add(2 * time.Hour) })
	canon, err := cellSpec(7).Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := coord.dispatch(ctx, canon, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dispatch err = %v, want context deadline exceeded", err)
	}
	if got := coord.Members().Snapshot()[0]; got.State != "suspect" || got.Breaker != "open" || got.Fails != 1 {
		t.Fatalf("after cancelled trial: %+v, want suspect/open with 1 fail", got)
	}
	if tgt, trial := coord.nextTarget(mustHash(t, cellSpec(8)), map[string]bool{}); tgt == nil || !trial {
		t.Fatal("cancelled trial was not released: no later job gets a trial")
	}
}

// The coordinator relays each job under the tenant it was submitted by
// (X-Idyll-Tenant), so the worker's own fair queue and per-tenant counters
// see the real tenant rather than the default.
func TestCoordinatorDispatchCarriesTenant(t *testing.T) {
	w := newTestWorker(t, "w1")
	var tenant atomic.Value
	stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			tenant.Store(r.Header.Get(service.HeaderTenant))
		}
		w.srv.Handler().ServeHTTP(rw, r)
	}))
	t.Cleanup(stub.Close)
	coord, err := NewCoordinator(Config{
		Workers:       []WorkerAddr{{ID: "w1", URL: stub.URL}},
		Replicas:      1,
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		coord.Drain(ctx)
		hs.Close()
	})

	alice := service.NewClient(hs.URL, service.WithTenant("alice"))
	st, err := alice.SubmitAndWait(context.Background(), cellSpec(3), nil)
	if err != nil || st.Status != service.StatusDone {
		t.Fatalf("job failed: %v %+v", err, st)
	}
	if got, _ := tenant.Load().(string); got != "alice" {
		t.Fatalf("worker saw X-Idyll-Tenant %q, want alice", got)
	}
	key := service.LabelKey("tenant_jobs_accepted", "tenant", "alice")
	if got := w.srv.Metrics().Counter(key); got != 1 {
		t.Fatalf("worker %s = %d, want 1", key, got)
	}
}

// End to end: a worker killed mid-fleet trips its breaker (visible in
// /metrics and /v1/fleet/status) while the job completes elsewhere.
func TestCoordinatorBreakerTripOnWorkerDeath(t *testing.T) {
	coord, c, workers := newTestFleet(t, Config{Replicas: 1}, 2)

	hash := mustHash(t, cellSpec(7))
	first := Rank(hash, []string{"w1", "w2"})[0]
	for _, w := range workers {
		if w.id == first {
			w.hs.CloseClientConnections()
			w.hs.Close()
		}
	}
	st, err := c.SubmitAndWait(context.Background(), cellSpec(7), nil)
	if err != nil || st.Status != service.StatusDone {
		t.Fatalf("job lost to worker death: %v %+v", err, st)
	}
	if got := coord.Server().Metrics().Counter("fleet_breaker_trips"); got < 1 {
		t.Fatalf("fleet_breaker_trips = %d, want >= 1", got)
	}
	for _, wk := range coord.Members().Snapshot() {
		if wk.ID == first && wk.Breaker == "closed" {
			t.Fatalf("dead worker's breaker still closed: %+v", wk)
		}
	}
}

// ---- helpers ----

func mustHash(t *testing.T, spec service.JobSpec) string {
	t.Helper()
	canon, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	h, err := canon.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func lineOrder(text string) string {
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		name, _, _ := strings.Cut(line, " ")
		names = append(names, name)
	}
	return strings.Join(names, "|")
}

func getJSON(t *testing.T, url string, out any) error {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func postJSON(t *testing.T, url string, in, out any) error {
	t.Helper()
	raw, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("POST %s: HTTP %d", url, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
