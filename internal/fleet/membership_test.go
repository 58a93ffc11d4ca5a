package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// healthStub serves a configurable /healthz.
type healthStub struct {
	draining atomic.Bool
	version  atomic.Value // string
	down     atomic.Bool
}

func (h *healthStub) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if h.down.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		v, _ := h.version.Load().(string)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok","draining":` +
			map[bool]string{true: "true", false: "false"}[h.draining.Load()] +
			`,"worker_id":"w","fleet_version":"` + v + `"}`))
	})
	return mux
}

func newMembers(t *testing.T, onDeath func(string)) (*Membership, *healthStub, string) {
	t.Helper()
	stub := &healthStub{}
	stub.version.Store(VersionString)
	srv := httptest.NewServer(stub.handler())
	t.Cleanup(srv.Close)
	m := NewMembership(3, time.Second, time.Minute, nil, onDeath, nil)
	return m, stub, srv.URL
}

func TestProbeLifecycle(t *testing.T) {
	var died atomic.Value
	m, stub, url := newMembers(t, func(id string) { died.Store(id) })
	m.Add("w1", url)

	m.ProbeOnce(context.Background())
	if got := m.Snapshot()[0].State; got != "alive" {
		t.Fatalf("state after healthy probe = %s", got)
	}
	if len(m.Routable()) != 1 {
		t.Fatal("healthy worker not routable")
	}

	// Drain: no dispatches, still hintable.
	stub.draining.Store(true)
	m.ProbeOnce(context.Background())
	if got := m.Snapshot()[0].State; got != "draining" {
		t.Fatalf("state = %s, want draining", got)
	}
	if len(m.Routable()) != 0 || len(m.Hintable()) != 1 {
		t.Fatal("draining worker must be hintable but not routable")
	}

	// Death after three failed probes.
	stub.down.Store(true)
	for i := 0; i < 3; i++ {
		m.ProbeOnce(context.Background())
	}
	if got := m.Snapshot()[0].State; got != "dead" {
		t.Fatalf("state = %s, want dead", got)
	}
	if died.Load() != "w1" {
		t.Fatal("onDeath hook did not fire")
	}
	if len(m.Hintable()) != 0 {
		t.Fatal("dead worker still hintable")
	}

	// Resurrection: a worker back with intact disk caches rejoins routing.
	stub.down.Store(false)
	stub.draining.Store(false)
	m.ProbeOnce(context.Background())
	if got := m.Snapshot()[0].State; got != "alive" {
		t.Fatalf("state after recovery = %s, want alive", got)
	}
}

func TestProbeRejectsIncompatibleVersion(t *testing.T) {
	m, stub, url := newMembers(t, nil)
	stub.version.Store("idyll-fleet/2")
	m.Add("w1", url)
	for i := 0; i < 3; i++ {
		m.ProbeOnce(context.Background())
	}
	if got := m.Snapshot()[0].State; got != "dead" {
		t.Fatalf("incompatible worker state = %s, want dead", got)
	}
}

func TestMarkFailedEscalates(t *testing.T) {
	var died atomic.Value
	m := NewMembership(3, time.Second, time.Minute, nil, func(id string) { died.Store(id) }, nil)
	m.Add("w1", "http://127.0.0.1:1") // never contacted
	m.MarkFailed("w1")
	if got := m.Snapshot()[0].State; got != "suspect" {
		t.Fatalf("state after one failure = %s, want suspect", got)
	}
	if len(m.Hintable()) != 1 {
		t.Fatal("suspect worker must stay hintable")
	}
	m.MarkFailed("w1")
	m.MarkFailed("w1")
	if got := m.Snapshot()[0].State; got != "dead" {
		t.Fatalf("state after three failures = %s, want dead", got)
	}
	if died.Load() != "w1" {
		t.Fatal("onDeath hook did not fire")
	}
	// Further failures on a dead member must not re-fire the hook.
	died.Store("")
	m.MarkFailed("w1")
	if died.Load() != "" {
		t.Fatal("onDeath re-fired for an already-dead member")
	}
}

// A dispatch failure trips the member's breaker exactly once, fires the
// trip hook once, and MarkSucceeded both closes the breaker and returns a
// suspect member to routing.
func TestBreakerFollowsDispatchFeedback(t *testing.T) {
	var trips []string
	m := NewMembership(10, time.Second, time.Hour,
		func(id string) { trips = append(trips, id) }, nil, nil)
	m.Add("w1", "http://127.0.0.1:1")

	m.MarkFailed("w1")
	snap := m.Snapshot()[0]
	if snap.State != "suspect" || snap.Breaker != "open" {
		t.Fatalf("snapshot = %+v, want suspect/open", snap)
	}
	// Failures while already open never re-trip.
	m.MarkFailed("w1")
	m.MarkFailed("w1")
	if len(trips) != 1 || trips[0] != "w1" {
		t.Fatalf("trips = %v, want exactly one for w1", trips)
	}

	m.MarkSucceeded("w1")
	snap = m.Snapshot()[0]
	if snap.State != "alive" || snap.Fails != 0 || snap.Breaker != "closed" {
		t.Fatalf("snapshot after success = %+v, want alive/closed with 0 fails", snap)
	}
	if len(m.Routable()) != 1 {
		t.Fatal("recovered member not routable")
	}
}

// A healthy probe closes the breaker too: probe-path and dispatch-path
// recovery are equivalent.
func TestProbeSuccessClosesBreaker(t *testing.T) {
	m, _, url := newMembers(t, nil)
	m.Add("w1", url)
	m.MarkFailed("w1")
	if got := m.Snapshot()[0].Breaker; got != "open" {
		t.Fatalf("setup: breaker = %s, want open", got)
	}
	m.ProbeOnce(context.Background())
	if got := m.Snapshot()[0].Breaker; got != "closed" {
		t.Fatalf("breaker = %s after healthy probe, want closed", got)
	}
}

// Zero arguments clamp to the documented defaults, and the first failure
// trips the breaker (there is no threshold to tune).
func TestBreakerDefaultsClamp(t *testing.T) {
	var trips int
	m := NewMembership(0, 0, 0, func(string) { trips++ }, nil, nil)
	if m.failLimit != 3 || m.timeout != 2*time.Second || m.cooldown != 15*time.Second {
		t.Fatalf("defaults: failLimit=%d timeout=%s cooldown=%s", m.failLimit, m.timeout, m.cooldown)
	}
	m.Add("w1", "http://127.0.0.1:1")
	m.MarkFailed("w1")
	if trips != 1 {
		t.Fatalf("trips after first failure = %d, want 1", trips)
	}
}

// The status strings: the liveness state, and the breaker position
// derived from the same state (failure count plus trial flag).
func TestBreakerStateStrings(t *testing.T) {
	for state, want := range map[State]string{
		StateAlive: "alive", StateSuspect: "suspect", StateDraining: "draining",
		StateDead: "dead", State(9): "unknown",
	} {
		if got := state.String(); got != want {
			t.Fatalf("State(%d) = %q, want %q", state, got, want)
		}
	}
	for _, tc := range []struct {
		fails int
		trial bool
		want  string
	}{{0, false, "closed"}, {1, false, "open"}, {2, true, "half-open"}} {
		mb := &Member{fails: tc.fails, trial: tc.trial}
		if got := mb.breaker(); got != tc.want {
			t.Fatalf("breaker(fails=%d, trial=%v) = %q, want %q", tc.fails, tc.trial, got, tc.want)
		}
	}
}

// TestMembershipTransitions drives one member through the worker-health
// state machine — liveness and circuit breaker in one — with a fake clock,
// and checks where each sequence of signals leaves it. Ops:
//
//	fail, succeed      dispatch feedback (MarkFailed / MarkSucceeded)
//	wait               advance the clock by one cooldown
//	trial, notrial     TryTrial must / must not release a half-open trial
//	release            ReleaseTrial (the trial's dispatch was cancelled)
//	probe, drain, down a healthy, draining, or failing health probe
//	rejoin             the worker re-announces itself at the same URL
func TestMembershipTransitions(t *testing.T) {
	for _, tc := range []struct {
		name          string
		ops           string
		state         string
		breaker       string
		trips, deaths int
	}{
		{"new member", "", "alive", "closed", 0, 0},
		{"first failure trips and suspects", "fail", "suspect", "open", 1, 0},
		{"probe failure trips like a dispatch failure", "down", "suspect", "open", 1, 0},
		{"fail limit kills and drops copysets", "fail fail fail", "dead", "open", 1, 1},
		{"no trial before the cooldown", "fail notrial", "suspect", "open", 1, 0},
		{"one trial after the cooldown", "fail wait trial notrial", "suspect", "half-open", 1, 0},
		{"failed trial restarts the cooldown, no new trip", "fail wait trial fail notrial wait trial", "suspect", "half-open", 1, 0},
		{"successful trial closes", "fail wait trial succeed", "alive", "closed", 1, 0},
		{"cancelled trial is released at once", "fail wait trial release trial", "suspect", "half-open", 1, 0},
		{"success after recovery re-arms the trip", "fail succeed fail", "suspect", "open", 2, 0},
		{"probe resurrects the dead", "fail fail fail probe", "alive", "closed", 1, 1},
		{"draining probe", "fail drain", "draining", "closed", 1, 0},
		{"draining failure trips without suspecting", "drain fail", "draining", "open", 1, 0},
		{"draining gets no trial", "drain fail wait notrial", "draining", "open", 1, 0},
		{"re-join resets a trial", "fail wait trial rejoin", "alive", "closed", 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stub := &healthStub{}
			stub.version.Store(VersionString)
			hs := httptest.NewServer(stub.handler())
			defer hs.Close()
			cs := NewCopysets(8)
			cs.Add("h", "w1")
			var trips, deaths int
			m := NewMembership(3, time.Second, time.Minute,
				func(string) { trips++ },
				func(id string) { deaths++; cs.DropWorker(id) }, nil)
			now := time.Unix(0, 0)
			m.now = func() time.Time { return now }
			m.Add("w1", hs.URL)

			probe := func(down, draining bool) {
				stub.down.Store(down)
				stub.draining.Store(draining)
				m.ProbeOnce(context.Background())
			}
			for _, op := range strings.Fields(tc.ops) {
				switch op {
				case "fail":
					m.MarkFailed("w1")
				case "succeed":
					m.MarkSucceeded("w1")
				case "wait":
					now = now.Add(time.Minute)
				case "trial", "notrial":
					if got := m.TryTrial(nil); (got != nil) != (op == "trial") {
						t.Fatalf("%s: TryTrial = %v", op, got)
					}
				case "release":
					m.ReleaseTrial("w1")
				case "probe":
					probe(false, false)
				case "drain":
					probe(false, true)
				case "down":
					probe(true, false)
				case "rejoin":
					m.Add("w1", hs.URL)
				default:
					t.Fatalf("unknown op %q", op)
				}
			}
			snap := m.Snapshot()[0]
			if snap.State != tc.state || snap.Breaker != tc.breaker {
				t.Fatalf("after %q: %s/%s, want %s/%s", tc.ops, snap.State, snap.Breaker, tc.state, tc.breaker)
			}
			if trips != tc.trips || deaths != tc.deaths {
				t.Fatalf("after %q: trips=%d deaths=%d, want %d/%d", tc.ops, trips, deaths, tc.trips, tc.deaths)
			}
			if held := cs.Holders("h") != nil; held == (tc.deaths > 0) {
				t.Fatalf("after %q: copyset held=%v with %d deaths", tc.ops, held, tc.deaths)
			}
		})
	}
}

func TestCheckVersion(t *testing.T) {
	if err := CheckVersion(VersionString); err != nil {
		t.Fatalf("exact version rejected: %v", err)
	}
	if err := CheckVersion(VersionString + ".3"); err != nil {
		t.Fatalf("minor revision rejected: %v", err)
	}
	for _, bad := range []string{"", "idyll-fleet/2", "idyll-fleet/10", "other/1"} {
		if CheckVersion(bad) == nil {
			t.Fatalf("incompatible version %q accepted", bad)
		}
	}
}

func TestCopysetsTrackAndDrop(t *testing.T) {
	cs := NewCopysets(2)
	cs.Add("h1", "w1")
	cs.Add("h1", "w2")
	cs.Add("h1", "w1") // duplicate: no-op
	if got := cs.Holders("h1"); len(got) != 2 || got[0] != "w1" || got[1] != "w2" {
		t.Fatalf("holders = %v", got)
	}
	cs.Add("h2", "w1")
	cs.Holders("h1")   // touch: h2 becomes the LRU hash
	cs.Add("h3", "w1") // evicts h2
	if cs.Holders("h2") != nil {
		t.Fatal("LRU hash survived eviction")
	}
	if cs.Holders("h1") == nil {
		t.Fatal("recently touched hash evicted")
	}
	cs.DropWorker("w1")
	if got := cs.Holders("h1"); len(got) != 1 || got[0] != "w2" {
		t.Fatalf("holders after drop = %v", got)
	}
	if cs.Holders("h3") != nil {
		t.Fatal("hash with no remaining holders must vanish")
	}
}
