package fleet

import (
	"context"
	"sort"
	"sync"
	"time"

	"idyll/internal/fault"
	"idyll/internal/service"
)

// State is a fleet member's liveness as seen by the coordinator.
type State int

const (
	// StateAlive workers receive new dispatches.
	StateAlive State = iota
	// StateSuspect workers failed at least one probe or dispatch but are
	// not yet declared dead; they receive no new dispatches beyond one
	// half-open trial per cooldown, but their caches are still listed in
	// copyset hints — the common case is a worker busy enough to miss a
	// probe deadline, not a dead one.
	StateSuspect
	// StateDraining workers answered a probe but report drain in progress
	// (SIGTERM received): no new dispatches, but their peer endpoints keep
	// serving, which is exactly what lets the rest of the fleet absorb
	// their cached results before the process exits.
	StateDraining
	// StateDead workers failed FailLimit consecutive probes or dispatches:
	// removed from routing and from every copyset.
	StateDead
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDraining:
		return "draining"
	case StateDead:
		return "dead"
	}
	return "unknown"
}

// Member is one worker as tracked by Membership. The exported fields are
// immutable after Add; health lives behind the Membership lock.
type Member struct {
	ID  string
	URL string
	// Dispatch is the retrying client used to relay jobs.
	Dispatch *service.Client
	// Probe is the non-retrying client used for health checks and metric
	// scrapes — a prober supplies its own cadence and failure accounting.
	Probe *service.Client

	// Health is one state machine over infrastructure failures (connection
	// refused, relay errors, probe timeouts — never deterministic job
	// failures, which re-routing would only duplicate). It doubles as the
	// member's circuit breaker: closed while fails is 0, open from the
	// first failure (the trip, which also makes an alive member suspect),
	// half-open while the single trial dispatch released after the
	// cooldown is in flight.
	state    State
	fails    int       // consecutive failures; 0 = breaker closed
	openedAt time.Time // breaker opened: the trip, or the last failed trial
	trial    bool      // a half-open trial dispatch is in flight
}

// breaker names the member's circuit-breaker position for
// /v1/fleet/status: "closed", "open" or "half-open".
func (mb *Member) breaker() string {
	switch {
	case mb.fails == 0:
		return "closed"
	case mb.trial:
		return "half-open"
	}
	return "open"
}

// reset records a liveness signal: the failure streak ends, the breaker
// closes, and any reserved trial is settled.
func (mb *Member) reset(s State) {
	mb.state = s
	mb.fails = 0
	mb.trial = false
}

// Membership tracks the worker set: static members given at construction
// plus dynamic joiners, probed for liveness on a fixed cadence. Safe for
// concurrent use.
type Membership struct {
	mu        sync.Mutex
	members   map[string]*Member
	failLimit int
	timeout   time.Duration
	cooldown  time.Duration    // suspect → half-open trial delay
	now       func() time.Time // test seam for the cooldown clock
	onTrip    func(id string)  // called outside the lock
	onDeath   func(id string)  // called outside the lock
	logf      func(format string, args ...any)
	faults    *fault.Injector // armed on each member's dispatch client
}

// NewMembership returns an empty member set. failLimit consecutive
// failures declare a worker dead (minimum 1); probeTimeout bounds one
// health check (default 2s); cooldown is how long a suspect worker waits
// before its half-open trial dispatch (default 15s). onTrip, when non-nil,
// fires once per breaker trip (a worker's first failure after a success);
// onDeath once per death (and is how the coordinator scrubs copysets).
func NewMembership(failLimit int, probeTimeout, cooldown time.Duration,
	onTrip, onDeath func(id string), logf func(string, ...any)) *Membership {
	if failLimit < 1 {
		failLimit = 3
	}
	if probeTimeout <= 0 {
		probeTimeout = 2 * time.Second
	}
	if cooldown <= 0 {
		cooldown = 15 * time.Second
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Membership{
		members:   make(map[string]*Member),
		failLimit: failLimit,
		timeout:   probeTimeout,
		cooldown:  cooldown,
		now:       time.Now,
		onTrip:    onTrip,
		onDeath:   onDeath,
		logf:      logf,
	}
}

// SetFaults arms deterministic fault injection (site "fleet.dispatch") on
// the dispatch clients of members added after the call.
func (m *Membership) SetFaults(inj *fault.Injector) {
	m.mu.Lock()
	m.faults = inj
	m.mu.Unlock()
}

// Add registers a worker (idempotent for an identical id+url; a re-join
// with a new URL replaces the member and resets its liveness — the worker
// restarted somewhere else).
func (m *Membership) Add(id, url string) *Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mb, ok := m.members[id]; ok && mb.URL == url {
		// Re-join of a known member: treat as a liveness signal.
		mb.reset(StateAlive)
		return mb
	}
	dispatchOpts := []service.ClientOption{}
	if m.faults != nil {
		dispatchOpts = append(dispatchOpts, service.WithFaults(m.faults, "fleet.dispatch"))
	}
	mb := &Member{
		ID:       id,
		URL:      url,
		Dispatch: service.NewClient(url, dispatchOpts...),
		Probe:    service.NewClient(url, service.WithRetry(service.NoRetry())),
	}
	m.members[id] = mb
	m.logf("fleet: member %s joined at %s", id, url)
	return mb
}

// Get returns the member with the given ID.
func (m *Membership) Get(id string) (*Member, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb, ok := m.members[id]
	return mb, ok
}

// Routable returns the members eligible for new dispatches (alive only),
// sorted by ID for deterministic iteration.
func (m *Membership) Routable() []*Member {
	return m.selectByState(func(s State) bool { return s == StateAlive })
}

// Hintable returns the members whose caches may be consulted for peer
// fills: everyone not declared dead. A draining or suspect worker's peer
// endpoints still serve.
func (m *Membership) Hintable() []*Member {
	return m.selectByState(func(s State) bool { return s != StateDead })
}

func (m *Membership) selectByState(keep func(State) bool) []*Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*Member
	for _, mb := range m.members {
		if keep(mb.state) {
			out = append(out, mb)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Snapshot reports every member's state for /v1/fleet/status.
func (m *Membership) Snapshot() []WorkerInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]WorkerInfo, 0, len(m.members))
	for _, mb := range m.members {
		out = append(out, WorkerInfo{ID: mb.ID, URL: mb.URL, State: mb.state.String(), Fails: mb.fails, Breaker: mb.breaker()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MarkFailed records an infrastructure failure (a failed probe, or a
// dispatch-side connection refusal or relay error) — the fast path to
// Suspect/Dead when a worker dies between probes. The first failure trips
// the breaker and makes an alive member suspect; a failure while a trial
// is in flight fails the trial, restarting the cooldown without counting a
// new trip; FailLimit failures declare the member dead.
func (m *Membership) MarkFailed(id string) {
	m.mu.Lock()
	mb, ok := m.members[id]
	var died, tripped bool
	if ok && mb.state != StateDead {
		mb.fails++
		if tripped = mb.fails == 1; tripped || mb.trial {
			mb.trial = false
			mb.openedAt = m.now()
		}
		if mb.fails >= m.failLimit {
			mb.state = StateDead
			died = true
		} else if mb.state == StateAlive {
			mb.state = StateSuspect
		}
	}
	m.mu.Unlock()
	if tripped {
		m.logf("fleet: member %s breaker tripped open", id)
		if m.onTrip != nil {
			m.onTrip(id)
		}
	}
	if died {
		m.logf("fleet: member %s declared dead after %d failures", id, m.failLimit)
		if m.onDeath != nil {
			m.onDeath(id)
		}
	}
}

// MarkSucceeded records a successful dispatch: the failure streak resets,
// the breaker closes, and a suspect member returns to Alive — a worker that
// just answered a relay is not missing.
func (m *Membership) MarkSucceeded(id string) {
	m.mu.Lock()
	if mb, ok := m.members[id]; ok {
		s := mb.state
		if s == StateSuspect {
			s = StateAlive
		}
		mb.reset(s)
	}
	m.mu.Unlock()
}

// TryTrial reserves a half-open trial dispatch: the first suspect member
// by ID, not in skip, whose cooldown has elapsed and that has no trial in
// flight. It is the dispatcher's last resort when no alive member can take
// a job; draining and dead members never qualify (draining asked not to
// receive work, dead comes back only through a successful probe). The
// caller must settle the trial with MarkSucceeded, MarkFailed or
// ReleaseTrial.
func (m *Membership) TryTrial(skip map[string]bool) *Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	var pick *Member
	for _, mb := range m.members {
		if mb.state == StateSuspect && !mb.trial && !skip[mb.ID] &&
			m.now().Sub(mb.openedAt) >= m.cooldown &&
			(pick == nil || mb.ID < pick.ID) {
			pick = mb
		}
	}
	if pick != nil {
		pick.trial = true
	}
	return pick
}

// ReleaseTrial gives back a trial whose dispatch was cancelled by its own
// context: neither a failure nor a success, so the member stays suspect
// with its cooldown already spent, and the next job may try it at once.
func (m *Membership) ReleaseTrial(id string) {
	m.mu.Lock()
	if mb, ok := m.members[id]; ok {
		mb.trial = false
	}
	m.mu.Unlock()
}

// ProbeOnce health-checks every member once, sequentially (fleet sizes
// here are single digits; sequential probes keep the logic trivially
// deterministic). A successful probe resurrects even a Dead member — if a
// worker comes back with its disk caches intact, there is no reason to
// shun it.
func (m *Membership) ProbeOnce(ctx context.Context) {
	m.mu.Lock()
	ids := make([]string, 0, len(m.members))
	for id := range m.members {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	sort.Strings(ids)

	for _, id := range ids {
		mb, ok := m.Get(id)
		if !ok {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, m.timeout)
		h, err := mb.Probe.Healthz(pctx)
		cancel()
		if err == nil && h.FleetVersion != "" {
			err = CheckVersion(h.FleetVersion)
		}
		if err != nil {
			m.MarkFailed(id)
			continue
		}
		m.mu.Lock()
		if h.Draining {
			if mb.state != StateDraining {
				m.logf("fleet: member %s draining", id)
			}
			mb.reset(StateDraining)
		} else {
			mb.reset(StateAlive)
		}
		m.mu.Unlock()
	}
}

// Run probes on a fixed cadence until ctx ends.
func (m *Membership) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.ProbeOnce(ctx)
		}
	}
}
