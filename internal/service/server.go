package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"idyll/internal/blobstore"
	"idyll/internal/experiment"
	"idyll/internal/fault"
	"idyll/internal/integrity"
)

// Config tunes the daemon. The zero value is usable: every field has a
// production default.
type Config struct {
	// Workers bounds how many jobs run concurrently (default GOMAXPROCS).
	// Each job may itself parallelize across cells via its options' Jobs.
	Workers int
	// QueueDepth bounds the accepted-but-not-running backlog (default 64).
	// A full queue sheds load: POST answers 429 with Retry-After.
	QueueDepth int
	// TenantWeights maps tenant name (X-Idyll-Tenant) → fair-share weight;
	// missing or non-positive entries weigh 1. The backlog is a weighted
	// fair-share scheduler: while several tenants have jobs queued, each
	// gets dispatch slots in proportion to its weight. With one tenant it
	// is plain FIFO.
	TenantWeights map[string]float64
	// TenantQuota, when positive, caps how many queued jobs any single
	// tenant may hold; the excess sheds with 429 (TenantQuotaError) before
	// the global queue fills. 0 = no cap.
	TenantQuota int
	// PeerFill, when non-nil, is consulted when a job is about to run after
	// missing the result cache: given the spec hash and the copyset hint
	// that rode in on X-Idyll-Copyset (base URLs of peers believed to hold
	// the result), it returns the result bytes fetched from a peer. A
	// successful fill is cached and finishes the job without recomputing
	// (metrics: peer_fills / peer_fill_misses).
	PeerFill func(ctx context.Context, hash string, hints []string) ([]byte, bool)
	// FleetID is this process's stable fleet member name (idylld -fleet-id),
	// echoed in /healthz; the coordinator's rendezvous hashing keys on it.
	FleetID string
	// FleetVersion is the fleet wire-protocol version string echoed in
	// /healthz so a coordinator can refuse incompatible workers.
	FleetVersion string
	// CacheEntries sizes the in-memory result LRU (default 256).
	CacheEntries int
	// CacheDir, when non-empty, persists results on disk so cache contents
	// survive restarts.
	CacheDir string
	// CkptEntries sizes the in-memory warmup-checkpoint LRU (default 64).
	// Checkpoints are full machine states, orders of magnitude larger than
	// result payloads, so the default is smaller than CacheEntries.
	CkptEntries int
	// CkptDir, when non-empty, persists warmup checkpoints on disk so a
	// restarted daemon serves warmups computed in a previous life. Ignored
	// when Runner is injected.
	CkptDir string
	// TTL is how long finished job records stay queryable (default 15m);
	// cached results are unaffected — only the job-ID records expire.
	TTL time.Duration
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// JobTimeout caps one job's run time (default 10m). A spec's timeout_ms
	// may only shorten it.
	JobTimeout time.Duration
	// Runner executes specs (default RunSpec). Tests inject stubs.
	Runner RunFunc
	// Faults, when non-nil, arms deterministic fault injection (idylld
	// -fault-spec). Sites this server exercises: <name>.disk.read and
	// <name>.disk.write of its two blob stores, "cache" (results) and
	// "ckpt" (warmup checkpoints) — cache.disk.read, cache.disk.write,
	// ckpt.disk.read, ckpt.disk.write — and worker.run (delay/panic around
	// job execution). nil = zero overhead.
	Faults *fault.Injector
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.CkptEntries <= 0 {
		c.CkptEntries = 64
	}
	if c.TTL <= 0 {
		c.TTL = 15 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	// Runner's default is filled in NewServer, not here: the production
	// RunFunc closes over the server's warmup-checkpoint store.
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the simulation service: job queue, worker pool, result cache,
// and the HTTP API. Build with NewServer, serve via Handler, stop with
// Drain.
type Server struct {
	cfg     Config
	cache   *blobstore.Store // job results, keyed by spec hash
	ckpt    *blobstore.Store // warmup checkpoints, shared by every job
	metrics *Metrics
	mux     *http.ServeMux

	baseCtx    context.Context // cancelled to force-stop in-flight jobs
	baseCancel context.CancelFunc

	queue *fairQueue

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job // job ID → record (terminal records GC'd by TTL)
	inflight map[string]*job // spec hash → live job (the singleflight map)
	running  int             // jobs currently executing
	nextID   int

	workers sync.WaitGroup
	gcStop  chan struct{}
	gcDone  chan struct{}
}

// NewServer builds and starts a server: workers and the TTL sweeper run
// until Drain.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cache, err := blobstore.New("cache", cfg.CacheEntries, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	cache.SetFaults(cfg.Faults)
	ckpt, err := blobstore.New("ckpt", cfg.CkptEntries, cfg.CkptDir)
	if err != nil {
		return nil, err
	}
	ckpt.SetFaults(cfg.Faults)
	if cfg.Runner == nil {
		cfg.Runner = RunSpecWith(ckpt)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      cache,
		ckpt:       ckpt,
		metrics:    NewMetrics(),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      newFairQueue(cfg.QueueDepth, cfg.TenantQuota, cfg.TenantWeights),
		jobs:       make(map[string]*job),
		inflight:   make(map[string]*job),
		gcStop:     make(chan struct{}),
		gcDone:     make(chan struct{}),
	}
	s.mux = s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	go s.gcLoop()
	return s, nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's counters (for embedding and tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// QueueLen reports how many accepted jobs are waiting for a worker.
func (s *Server) QueueLen() int { return s.queue.Len() }

// Drain performs the graceful-shutdown sequence: stop accepting new jobs
// (submissions answer 503), let queued and in-flight jobs finish, and
// return once every worker has stopped. If ctx expires first, in-flight
// jobs are cancelled at their next event-loop batch boundary and Drain
// waits for that cancellation to land, returning ctx.Err(). Results are
// written to the disk cache synchronously at job completion, so a clean
// drain implies a flushed cache.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.queue.Close()
	}

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel() // cancel in-flight jobs, then wait for them to stop
		<-done
	}
	if !already {
		close(s.gcStop)
	}
	<-s.gcDone
	s.baseCancel()
	return err
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// errDraining marks submissions rejected because shutdown has begun; queue
// rejections satisfy errors.Is(err, ErrQueueFull) instead.
var errDraining = errors.New("service: draining, not accepting jobs")

// submit is the single entry point for new work: cache lookup, singleflight
// dedupe against in-flight identical jobs, then enqueue. The returned
// JobStatus reflects the submission outcome (Cached/Deduped set
// accordingly); the *job is registered and queryable by ID either way.
func (s *Server) submit(spec CanonicalSpec) (*job, JobStatus, error) {
	hash, err := spec.Hash()
	if err != nil {
		return nil, JobStatus{}, err
	}

	if raw, ok := s.cache.Get(hash); ok {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return nil, JobStatus{}, errDraining
		}
		j := newJob(s.nextIDLocked(), hash, spec)
		s.jobs[j.id] = j
		s.mu.Unlock()
		j.mu.Lock()
		j.cached = true
		j.source = SourceCache
		j.mu.Unlock()
		j.finish(StatusDone, raw, "")
		st, err := j.snapshot()
		return j, st, err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, JobStatus{}, errDraining
	}
	if live, ok := s.inflight[hash]; ok {
		s.mu.Unlock()
		s.metrics.Inc("jobs_deduped", 1)
		st, err := live.snapshot()
		st.Deduped = true
		return live, st, err
	}
	j := newJob(s.nextIDLocked(), hash, spec)
	if err := s.queue.Push(spec.Tenant, j); err != nil {
		s.mu.Unlock()
		s.metrics.Inc("jobs_shed", 1)
		s.metrics.IncLabeled("tenant_jobs_shed", "tenant", tenantOrDefault(spec.Tenant), 1)
		return nil, JobStatus{}, err
	}
	s.jobs[j.id] = j
	s.inflight[hash] = j
	s.mu.Unlock()
	s.metrics.Inc("jobs_accepted", 1)
	s.metrics.IncLabeled("tenant_jobs_accepted", "tenant", tenantOrDefault(spec.Tenant), 1)
	st, err := j.snapshot()
	return j, st, err
}

// tenantOrDefault normalizes the accounting label for submissions that
// carried no X-Idyll-Tenant header.
func tenantOrDefault(t string) string {
	if t == "" {
		return DefaultTenant
	}
	return t
}

func (s *Server) nextIDLocked() string {
	s.nextID++
	return fmt.Sprintf("j-%06d", s.nextID)
}

func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// worker drains the queue until Drain closes it (queued jobs still pop and
// run during drain; force-cancel lands through baseCtx instead).
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		j, ok := s.queue.Pop(context.Background())
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one job with panic isolation: a panicking cell fails the
// job, never the daemon.
func (s *Server) runJob(j *job) {
	timeout := s.cfg.JobTimeout
	if j.spec.Timeout > 0 && j.spec.Timeout < timeout {
		timeout = j.spec.Timeout
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	defer cancel()

	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	j.setRunning()
	start := time.Now()

	// Peer cache fill: before recomputing, ask the peers the copyset hint
	// names for the finished result. Deterministic jobs make this sound —
	// any peer's bytes for this hash are THE bytes.
	var raw []byte
	var err error
	source := SourceComputed
	if s.cfg.PeerFill != nil && len(j.spec.Hints) > 0 {
		if pr, ok := s.cfg.PeerFill(ctx, j.hash, j.spec.Hints); ok {
			raw, source = pr, SourcePeer
			s.metrics.Inc("peer_fills", 1)
			s.cfg.Logf("job %s peer-filled %s", j.id, j.hash[:12])
		} else {
			s.metrics.Inc("peer_fill_misses", 1)
		}
	}
	if source != SourcePeer {
		raw, err = s.safeRun(ctx, j)
	}

	s.mu.Lock()
	s.running--
	delete(s.inflight, j.hash)
	s.mu.Unlock()

	switch {
	case err == nil:
		if cerr := s.cache.Put(j.hash, raw); cerr != nil {
			s.cfg.Logf("cache put %s: %v", j.hash[:12], cerr)
		}
		j.mu.Lock()
		j.source = source
		j.mu.Unlock()
		j.finish(StatusDone, raw, "")
		s.metrics.Inc("jobs_completed", 1)
		s.metrics.IncLabeled("tenant_jobs_completed", "tenant", tenantOrDefault(j.spec.Tenant), 1)
		s.metrics.ObserveJobLatency(time.Since(start))
		s.cfg.Logf("job %s done in %.2fs", j.id, time.Since(start).Seconds())
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finish(StatusCancelled, nil, err.Error())
		s.metrics.Inc("jobs_cancelled", 1)
		s.cfg.Logf("job %s cancelled: %v", j.id, err)
	default:
		j.finish(StatusFailed, nil, err.Error())
		s.metrics.Inc("jobs_failed", 1)
		s.cfg.Logf("job %s failed: %v", j.id, err)
	}
}

func (s *Server) safeRun(ctx context.Context, j *job) (raw []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.Inc("job_panics", 1)
			err = fmt.Errorf("service: job panicked: %v", r)
		}
	}()
	// worker.run is the injection site simulating a sick worker: delay rules
	// model a stall, panic rules a crash mid-job (caught above, like any
	// other panicking cell).
	s.cfg.Faults.Delay("worker.run")
	s.cfg.Faults.Panic("worker.run")
	return s.cfg.Runner(ctx, j.spec, func(done, total int, cell string) {
		j.emit(Event{Type: "progress", Done: done, Total: total, Cell: cell})
	})
}

// gcLoop expires finished job records past their TTL.
func (s *Server) gcLoop() {
	defer close(s.gcDone)
	interval := s.cfg.TTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.gcStop:
			return
		case now := <-t.C:
			s.mu.Lock()
			for id, j := range s.jobs {
				if j.expired(now, s.cfg.TTL) {
					delete(s.jobs, id)
				}
			}
			s.mu.Unlock()
		}
	}
}

// ---- HTTP API ----

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/figures/{name}", s.handleFigure)
	// Peer endpoints: result-cache reads and fills other fleet members use
	// for peer cache fill. They never trigger computation, and they keep
	// serving during drain — a draining worker's cache is exactly what its
	// peers need to pick up its work.
	mux.HandleFunc("GET /v1/cache/{hash}", s.handleCacheGet)
	mux.HandleFunc("POST /v1/cache/fill", s.handleCacheFill)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusRequestEntityTooLarge, apiError{err.Error()})
		return
	}
	spec, err := DecodeSpec(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	canon, err := spec.Canonicalize()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	s.applyFleetHeaders(&canon, r)
	_, st, err := s.submit(canon)
	switch {
	case errors.Is(err, errDraining):
		writeJSON(w, http.StatusServiceUnavailable, apiError{err.Error()})
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{err.Error()})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
	case st.Status == StatusDone || st.Deduped:
		if st.Source != "" {
			w.Header().Set(HeaderSource, st.Source)
		}
		writeJSON(w, http.StatusOK, st)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

// applyFleetHeaders threads the fleet request headers into the canonical
// spec (tenant, copyset hints).
func (s *Server) applyFleetHeaders(canon *CanonicalSpec, r *http.Request) {
	canon.Tenant = tenantOrDefault(r.Header.Get(HeaderTenant))
	if hints := r.Header.Get(HeaderCopyset); hints != "" {
		canon.Hints = splitComma(hints)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"no such job"})
		return
	}
	st, err := j.snapshot()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a job's progress as Server-Sent Events: the full
// history replays first (ordered by seq), then live events until the job
// reaches a terminal state or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"no such job"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, apiError{"streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, live, cancel := j.subscribe()
	defer cancel()
	for _, ev := range replay {
		writeSSE(w, ev)
	}
	flusher.Flush()
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return
			}
			writeSSE(w, ev)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func writeSSE(w io.Writer, ev Event) {
	raw, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, raw)
}

// handleFigure is the synchronous convenience endpoint: it submits a figure
// job (deduped and cached like any other) and waits for the result, bounded
// by the request context.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	spec := JobSpec{Kind: KindFigure, Figure: r.PathValue("name")}
	opts, err := optionsFromQuery(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	spec.Options = opts
	canon, err := spec.Canonicalize()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	s.applyFleetHeaders(&canon, r)
	j, _, err := s.submit(canon)
	switch {
	case errors.Is(err, errDraining):
		writeJSON(w, http.StatusServiceUnavailable, apiError{err.Error()})
		return
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		writeJSON(w, http.StatusGatewayTimeout, apiError{"request cancelled while waiting"})
		return
	}
	st, err := j.snapshot()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
		return
	}
	if st.Status != StatusDone {
		writeJSON(w, http.StatusInternalServerError, apiError{st.Error})
		return
	}
	if st.Source != "" {
		w.Header().Set(HeaderSource, st.Source)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(st.Result)
}

// ---- peer endpoints (fleet) ----

// handleCacheGet serves the result bytes under hash (memory or disk) with
// their checksum header, 404 on miss. It never computes and never blocks on
// the queue. This is the supply side of peer fill.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !blobstore.ValidKey(hash) {
		writeJSON(w, http.StatusBadRequest, apiError{"hash must be 64 hex chars"})
		return
	}
	data, ok := s.cache.Get(hash)
	if !ok {
		s.metrics.Inc("peer_serve_misses", 1)
		writeJSON(w, http.StatusNotFound, apiError{"nothing stored under hash"})
		return
	}
	s.metrics.Inc("peer_serves", 1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderChecksum, integrity.SumHex(data))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// fillRequest is the body of POST /v1/cache/fill: the coordinator's
// replication push. The worker pulls the result for hash from the listed
// source peers and stores it locally, widening the copyset so the result
// survives the original computer's death.
type fillRequest struct {
	Hash    string   `json:"hash"`
	Sources []string `json:"sources"`
}

type fillResponse struct {
	// Filled is true when the result was fetched from a peer by this call;
	// false with Present=true means it was already held locally.
	Filled  bool `json:"filled"`
	Present bool `json:"present"`
}

func (s *Server) handleCacheFill(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusRequestEntityTooLarge, apiError{err.Error()})
		return
	}
	var req fillRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	if !blobstore.ValidKey(req.Hash) {
		writeJSON(w, http.StatusBadRequest, apiError{"hash must be 64 hex chars"})
		return
	}
	if _, ok := s.cache.Get(req.Hash); ok {
		writeJSON(w, http.StatusOK, fillResponse{Present: true})
		return
	}
	if s.cfg.PeerFill == nil {
		writeJSON(w, http.StatusNotImplemented, apiError{"peer fill not configured"})
		return
	}
	raw, ok := s.cfg.PeerFill(r.Context(), req.Hash, req.Sources)
	if !ok {
		s.metrics.Inc("peer_fill_misses", 1)
		writeJSON(w, http.StatusBadGateway, apiError{"no listed source had the result"})
		return
	}
	s.metrics.Inc("peer_fills", 1)
	if err := s.cache.Put(req.Hash, raw); err != nil {
		s.cfg.Logf("fill put %s: %v", req.Hash[:12], err)
	}
	writeJSON(w, http.StatusOK, fillResponse{Filled: true, Present: true})
}

// optionsFromQuery assembles canonical-options JSON from ?cus=&accesses=&
// seed=&threshold=&warmup=&apps= query parameters.
func optionsFromQuery(r *http.Request) (json.RawMessage, error) {
	q := r.URL.Query()
	o := experiment.Options{}
	var err error
	geti := func(name string) int {
		v := q.Get(name)
		if v == "" || err != nil {
			return 0
		}
		var n int
		n, err = strconv.Atoi(v)
		if err != nil {
			err = fmt.Errorf("service: query %s=%q: %w", name, v, err)
		}
		return n
	}
	o.CUsPerGPU = geti("cus")
	o.AccessesPerCU = geti("accesses")
	o.CounterThreshold = geti("threshold")
	o.WarmupAccessesPerCU = geti("warmup")
	if v := q.Get("seed"); v != "" && err == nil {
		o.Seed, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			err = fmt.Errorf("service: query seed=%q: %w", v, err)
		}
	}
	if err != nil {
		return nil, err
	}
	if v := q.Get("apps"); v != "" {
		for _, a := range splitComma(v) {
			o.Apps = append(o.Apps, a)
		}
	}
	return o.CanonicalJSON()
}

func splitComma(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ',' {
			if cur != "" {
				out = append(out, cur)
			}
			cur = ""
			continue
		}
		if r != ' ' {
			cur += string(r)
		}
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"status":   "ok",
		"draining": s.Draining(),
	}
	if s.cfg.FleetID != "" {
		out["worker_id"] = s.cfg.FleetID
	}
	if s.cfg.FleetVersion != "" {
		out["fleet_version"] = s.cfg.FleetVersion
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.setStoreMetrics(s.cache.Stats(), "cache_hits", "cache_misses",
		"cache_disk_hits", "cache_verify_failures", "cache_corrupt_quarantined")
	s.setStoreMetrics(s.ckpt.Stats(), "ckpt_hits", "ckpt_misses",
		"ckpt_disk_hits", "ckpt_verify_failures", "ckpt_corrupt_quarantined")
	if s.cfg.Faults != nil {
		s.metrics.Set("faults_injected", s.cfg.Faults.TotalFired())
		for site, n := range s.cfg.Faults.FiredBySite() {
			s.metrics.Set(LabelKey("faults_injected_site", "site", site), n)
		}
	}
	s.mu.Lock()
	gauges := map[string]int{
		"queue_depth":   s.queue.Len(),
		"jobs_inflight": s.running,
		"jobs_tracked":  len(s.jobs),
		"cache_entries": s.cache.Len(),
		"ckpt_entries":  s.ckpt.Len(),
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, s.metrics.Render(gauges))
}

// setStoreMetrics publishes one blob store's counters under the literal keys
// its caller names (registered in MetricKeys).
func (s *Server) setStoreMetrics(st blobstore.Stats, hits, misses, diskHits,
	verifyFailures, quarantined string) {
	s.metrics.Set(hits, st.Hits)
	s.metrics.Set(misses, st.Misses)
	s.metrics.Set(diskHits, st.DiskHits)
	s.metrics.Set(verifyFailures, st.VerifyFailures)
	s.metrics.Set(quarantined, st.Quarantined)
}
