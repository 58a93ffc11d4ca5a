package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"idyll/internal/fault"
	"idyll/internal/service"
)

// WorkerAddr statically names one worker at coordinator startup.
type WorkerAddr struct {
	ID  string
	URL string
}

// Config tunes a Coordinator. The zero value of every field has a usable
// default except Workers, which may be empty only if workers join
// dynamically via POST /v1/fleet/join.
type Config struct {
	// Workers is the static member list (idylld -coordinator -workers ...).
	Workers []WorkerAddr
	// TenantWeights, TenantQuota and QueueDepth configure the coordinator's
	// fair-share backlog, as the service.Config fields of the same names
	// (QueueDepth defaults to 256 here).
	TenantWeights map[string]float64
	TenantQuota   int
	QueueDepth    int
	// Concurrency bounds simultaneous dispatches to workers (default
	// 4·workers, minimum 4): the coordinator's own "worker pool" is a set
	// of relay loops, so it should oversubscribe the fleet slightly to
	// keep worker queues fed.
	Concurrency int
	// Replicas is the copyset size replication drives toward (default 2):
	// after a job computes, the result is pushed to the next-ranked
	// workers until this many members hold it. 1 disables replication.
	Replicas int
	// ProbeInterval is the heartbeat cadence (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health check (default 2s).
	ProbeTimeout time.Duration
	// FailLimit is how many consecutive probe/dispatch failures declare a
	// worker dead (default 3).
	FailLimit int
	// CacheEntries/CacheDir configure the coordinator's own result cache,
	// which answers repeat submissions without touching the fleet.
	CacheEntries int
	CacheDir     string
	// BreakerCooldown is how long a suspect worker's breaker stays open
	// before a single half-open trial dispatch is allowed (default 15s).
	BreakerCooldown time.Duration
	// LocalRunner, when non-nil, is the degraded-mode fallback: if zero
	// workers are routable, the coordinator runs the job itself instead of
	// failing it. Availability over throughput — a coordinator alone is a
	// slow fleet, not a dead one.
	LocalRunner service.RunFunc
	// Faults arms deterministic fault injection (internal/fault) on the
	// coordinator's own disk tiers and on worker dispatch clients (sites
	// "fleet.dispatch" and "fleet.dispatch.payload"). Nil disables.
	Faults *fault.Injector
	// Logf receives operational log lines.
	Logf func(format string, args ...any)
}

const (
	// routeAttempts bounds how many distinct workers one job may be relayed
	// to before failing; a fleet smaller than this runs out of untried
	// workers first.
	routeAttempts = 3
	// copysetEntries bounds the copyset tracker.
	copysetEntries = 4096
)

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4 * len(c.Workers)
		if c.Concurrency < 4 {
			c.Concurrency = 4
		}
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailLimit <= 0 {
		c.FailLimit = 3
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Coordinator fronts a fleet of idylld workers behind the standard idylld
// API: clients submit jobs and fetch figures exactly as against a single
// daemon, and the coordinator routes each spec to a worker by rendezvous
// hashing over its content address, re-routing on worker failure. It is
// built ON a service.Server — the server's cache, singleflight, SSE
// streaming, drain sequence, and load shedding all apply unchanged; only
// the Runner (a dispatch relay instead of a simulation) differs.
type Coordinator struct {
	cfg      Config
	srv      *service.Server
	members  *Membership
	copysets *Copysets

	probeCancel context.CancelFunc
	probeDone   chan struct{}
}

// NewCoordinator builds and starts a coordinator (heartbeat loop included).
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:       cfg,
		copysets:  NewCopysets(copysetEntries),
		probeDone: make(chan struct{}),
	}
	// The trip hook runs only from MarkFailed, which nothing calls before
	// NewServer below assigns c.srv.
	c.members = NewMembership(cfg.FailLimit, cfg.ProbeTimeout, cfg.BreakerCooldown,
		func(id string) {
			c.srv.Metrics().Inc("fleet_breaker_trips", 1)
			c.srv.Metrics().IncLabeled("fleet_breaker_trips_worker", "worker", id, 1)
		},
		func(id string) { c.copysets.DropWorker(id) }, cfg.Logf)
	c.members.SetFaults(cfg.Faults)
	for _, w := range cfg.Workers {
		if w.ID == "" || w.URL == "" {
			return nil, fmt.Errorf("fleet: worker needs both id and url, got %+v", w)
		}
		c.members.Add(w.ID, strings.TrimRight(w.URL, "/"))
	}

	srv, err := service.NewServer(service.Config{
		Workers:       cfg.Concurrency,
		QueueDepth:    cfg.QueueDepth,
		TenantWeights: cfg.TenantWeights,
		TenantQuota:   cfg.TenantQuota,
		Runner:        c.dispatch,
		CacheEntries:  cfg.CacheEntries,
		CacheDir:      cfg.CacheDir,
		FleetID:       "coordinator",
		FleetVersion:  VersionString,
		Faults:        cfg.Faults,
		Logf:          cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	c.srv = srv

	ctx, cancel := context.WithCancel(context.Background())
	c.probeCancel = cancel
	go func() {
		defer close(c.probeDone)
		c.members.Run(ctx, cfg.ProbeInterval)
	}()
	return c, nil
}

// Members exposes the membership table (for tests and embedding).
func (c *Coordinator) Members() *Membership { return c.members }

// Copysets exposes the copyset tracker (for tests and embedding).
func (c *Coordinator) Copysets() *Copysets { return c.copysets }

// Server exposes the underlying service server.
func (c *Coordinator) Server() *service.Server { return c.srv }

// Drain stops the heartbeat loop and drains the underlying server: queued
// and in-flight dispatches finish (bounded by ctx), new submissions shed
// with 503.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.probeCancel()
	<-c.probeDone
	return c.srv.Drain(ctx)
}

// hintURLs maps copyset holder IDs to base URLs, skipping dead members and
// optionally one excluded worker (the dispatch target itself — hinting a
// worker at its own cache would be a pointless self-probe).
func (c *Coordinator) hintURLs(hash, excludeID string) []string {
	hintable := make(map[string]string) // id → URL
	for _, mb := range c.members.Hintable() {
		hintable[mb.ID] = mb.URL
	}
	var urls []string
	for _, id := range c.copysets.Holders(hash) {
		if id == excludeID {
			continue
		}
		if url, ok := hintable[id]; ok {
			urls = append(urls, url)
		}
	}
	return urls
}

// dispatch is the coordinator's Runner: relay one canonical spec to the
// rendezvous-ranked worker, falling down the ranking on worker failure.
// Job idempotency (content addressing) makes blind re-submission to the
// next worker safe: the worst case is a duplicate computation, never a
// duplicate effect.
func (c *Coordinator) dispatch(ctx context.Context, spec service.CanonicalSpec, progress func(done, total int, cell string)) ([]byte, error) {
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	wire, err := spec.Wire()
	if err != nil {
		return nil, err
	}
	onEvent := func(ev service.Event) {
		if ev.Type == "progress" && progress != nil {
			progress(ev.Done, ev.Total, ev.Cell)
		}
	}

	tried := make(map[string]bool)
	var lastErr error
	for attempt := 0; attempt < routeAttempts; attempt++ {
		target, trial := c.nextTarget(hash, tried)
		if target == nil {
			break
		}
		tried[target.ID] = true

		opts := service.SubmitOpts{
			Tenant: spec.Tenant,
			Hints:  c.hintURLs(hash, target.ID),
		}
		st, err := target.Dispatch.SubmitAndWaitWith(ctx, wire, opts, onEvent)
		if err != nil {
			if ctx.Err() != nil {
				// Our own cancellation says nothing about the worker.
				if trial {
					c.members.ReleaseTrial(target.ID)
				}
				return nil, ctx.Err()
			}
			lastErr = fmt.Errorf("worker %s: %w", target.ID, err)
			c.members.MarkFailed(target.ID)
			c.srv.Metrics().Inc("fleet_reroutes", 1)
			c.cfg.Logf("fleet: job %s on %s failed (%v), re-routing", hash[:12], target.ID, err)
			continue
		}
		// The worker answered over HTTP, whatever the job's outcome:
		// infrastructure is fine, so its breaker closes and a suspect
		// member returns to the routable pool.
		c.members.MarkSucceeded(target.ID)
		switch st.Status {
		case service.StatusDone:
			c.copysets.Add(hash, target.ID)
			c.srv.Metrics().IncLabeled("fleet_jobs_dispatched", "worker", target.ID, 1)
			if st.Source != "" {
				c.srv.Metrics().Inc("fleet_results_"+st.Source, 1)
			}
			c.replicate(ctx, hash, target)
			return st.Result, nil
		case service.StatusFailed:
			// Deterministic failure: every worker would fail identically,
			// so re-routing only multiplies the waste.
			return nil, errors.New(st.Error)
		default:
			// Cancelled worker-side (force-cancelled drain, worker-local
			// timeout): the job may succeed elsewhere.
			lastErr = fmt.Errorf("worker %s: job %s", target.ID, st.Status)
			c.srv.Metrics().Inc("fleet_reroutes", 1)
			c.cfg.Logf("fleet: job %s %s on %s, re-routing", hash[:12], st.Status, target.ID)
			continue
		}
	}
	// Degraded mode: with zero routable workers and an embedded runner, the
	// coordinator computes the job itself. Content addressing makes this
	// safe — a locally computed result is byte-identical to a worker's.
	if c.cfg.LocalRunner != nil && len(c.members.Routable()) == 0 {
		c.srv.Metrics().Inc("fleet_degraded_local_runs", 1)
		c.cfg.Logf("fleet: no routable worker for job %s, running degraded-local", hash[:12])
		return c.cfg.LocalRunner(ctx, spec, progress)
	}
	if lastErr == nil {
		lastErr = errors.New("no routable worker")
	}
	return nil, fmt.Errorf("fleet: job %s exhausted routing: %w", hash[:12], lastErr)
}

// nextTarget picks the highest-ranked routable worker not yet tried, or
// failing that a suspect worker's half-open trial (trial=true).
func (c *Coordinator) nextTarget(hash string, tried map[string]bool) (target *Member, trial bool) {
	routable := c.members.Routable()
	ids := make([]string, len(routable))
	byID := make(map[string]*Member, len(routable))
	for i, mb := range routable {
		ids[i] = mb.ID
		byID[mb.ID] = mb
	}
	for _, id := range Rank(hash, ids) {
		if !tried[id] {
			return byID[id], false
		}
	}
	// No alive member can take the job: offer it to a suspect member whose
	// cooldown has elapsed, as its single half-open trial. The dispatch
	// outcome lands in MarkSucceeded/MarkFailed (close or re-open the
	// breaker) or, if the job itself is cancelled, ReleaseTrial.
	if mb := c.members.TryTrial(tried); mb != nil {
		c.cfg.Logf("fleet: half-open trial dispatch to %s for %s", mb.ID, hash[:12])
		return mb, true
	}
	return nil, false
}

// replicate pushes the freshly computed result down the rendezvous ranking
// until Replicas members hold it, so the bytes survive the computing
// worker's death. Synchronous and best-effort: a failed push costs
// availability, not correctness.
func (c *Coordinator) replicate(ctx context.Context, hash string, computed *Member) {
	if c.cfg.Replicas < 2 {
		return
	}
	routable := c.members.Routable()
	ids := make([]string, len(routable))
	byID := make(map[string]*Member, len(routable))
	for i, mb := range routable {
		ids[i] = mb.ID
		byID[mb.ID] = mb
	}
	for _, id := range Rank(hash, ids) {
		holders := c.copysets.Holders(hash)
		if len(holders) >= c.cfg.Replicas {
			return
		}
		already := false
		for _, h := range holders {
			if h == id {
				already = true
				break
			}
		}
		if already {
			continue
		}
		mb := byID[id]
		filled, present, err := mb.Dispatch.FillCache(ctx, hash, []string{computed.URL})
		if err != nil {
			c.cfg.Logf("fleet: replicate %s to %s: %v", hash[:12], id, err)
			continue
		}
		if filled || present {
			c.copysets.Add(hash, id)
			if filled {
				c.srv.Metrics().Inc("fleet_replications", 1)
			}
		}
	}
}

// ---- HTTP ----

// Handler returns the coordinator API: the full idylld surface (jobs,
// figures, events, healthz) plus the fleet endpoints, with /metrics
// replaced by the fleet-wide rollup.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", c.srv.Handler())
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /v1/fleet/status", c.handleStatus)
	mux.HandleFunc("POST /v1/fleet/join", c.handleJoin)
	return mux
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatusResponse{
		Version:    VersionString,
		Workers:    c.members.Snapshot(),
		Copysets:   c.copysets.Len(),
		QueueDepth: c.srv.QueueLen(),
	})
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if err := decodeJSON(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if req.ID == "" || req.URL == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "join needs id and url"})
		return
	}
	if err := CheckVersion(req.Version); err != nil {
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
		return
	}
	c.members.Add(req.ID, strings.TrimRight(req.URL, "/"))
	writeJSON(w, http.StatusOK, JoinResponse{OK: true})
}

// handleMetrics is the fleet-wide rollup: the coordinator's own counters
// (idylld_ prefix, unchanged), fleet-level aggregates (fleet_ prefix:
// membership gauges plus every unlabeled worker counter summed across the
// fleet), and the per-worker breakdown (worker_ prefix with a worker
// label). Each section is rendered with the shared key-sorted renderer, so
// the whole document's line order is a pure function of the key set.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	fleetVals := make(map[string]string)
	var alive, suspect, draining, dead, breakersOpen int
	for _, wk := range c.members.Snapshot() {
		switch wk.State {
		case "alive":
			alive++
		case "suspect":
			suspect++
		case "draining":
			draining++
		case "dead":
			dead++
		}
		if wk.Breaker == "open" || wk.Breaker == "half-open" {
			breakersOpen++
		}
	}
	fleetVals["workers_alive"] = fmt.Sprintf("%d", alive)
	fleetVals["workers_suspect"] = fmt.Sprintf("%d", suspect)
	fleetVals["workers_draining"] = fmt.Sprintf("%d", draining)
	fleetVals["workers_dead"] = fmt.Sprintf("%d", dead)
	fleetVals["breakers_open"] = fmt.Sprintf("%d", breakersOpen)
	fleetVals["copysets_tracked"] = fmt.Sprintf("%d", c.copysets.Len())

	workerVals := make(map[string]string)
	sums := make(map[string]float64)
	for _, mb := range c.members.Hintable() {
		sctx, cancel := context.WithTimeout(r.Context(), c.cfg.ProbeTimeout)
		text, err := mb.Probe.MetricsText(sctx)
		cancel()
		if err != nil {
			workerVals[service.LabelKey("scrape_error", "worker", mb.ID)] = "1"
			continue
		}
		parsed, err := service.ParseMetrics(text)
		if err != nil {
			workerVals[service.LabelKey("scrape_error", "worker", mb.ID)] = "1"
			continue
		}
		for name, v := range parsed {
			base := strings.TrimPrefix(name, "idylld_")
			if strings.Contains(base, "{") {
				// Already-labeled worker lines (per-tenant counters) are
				// not re-labeled; the coordinator's own tenant counters
				// carry the fleet-level tenant breakdown.
				continue
			}
			workerVals[service.LabelKey(base, "worker", mb.ID)] = fmt.Sprintf("%g", v)
			sums[base] += v
		}
	}
	for name, v := range sums {
		fleetVals[name] = fmt.Sprintf("%g", v)
	}

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	var b strings.Builder
	b.WriteString(c.srv.Metrics().Render(map[string]int{
		"queue_depth": c.srv.QueueLen(),
	}))
	b.WriteString(service.RenderMetricLines("fleet_", fleetVals))
	b.WriteString(service.RenderMetricLines("worker_", workerVals))
	_, _ = w.Write([]byte(b.String()))
}
