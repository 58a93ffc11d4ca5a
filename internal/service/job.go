package service

import (
	"context"
	"encoding/json"
	"sync"
	"time"
)

// Job states.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// Result sources: how a done job's bytes were obtained. Mirrored in the
// X-Idyll-Source response header so a coordinator can update copysets.
const (
	SourceComputed = "computed" // ran the simulation
	SourceCache    = "cache"    // local result cache (memory or disk)
	SourcePeer     = "peer"     // fetched from a peer's cache (copyset hint)
)

// Fleet-protocol headers understood by the daemon. The wire-protocol
// version string itself lives in internal/fleet; the daemon only echoes
// what cmd/idylld configures (Config.FleetVersion).
const (
	HeaderTenant  = "X-Idyll-Tenant"  // fairness/accounting identity
	HeaderCopyset = "X-Idyll-Copyset" // comma-separated peer base URLs holding this result
	HeaderSource  = "X-Idyll-Source"  // response: computed | cache | peer
	// HeaderChecksum carries the lowercase hex SHA-256 of the response body
	// on the peer-fill endpoint (GET /v1/cache/{hash}); clients verify it
	// before trusting transferred bytes.
	HeaderChecksum = "X-Idyll-Checksum"
)

// DefaultTenant labels submissions that carry no X-Idyll-Tenant header.
const DefaultTenant = "default"

// Event is one entry of a job's progress stream (GET /v1/jobs/{id}/events).
// Seq increases by one per event; subscribers that attach late replay the
// full history first, so the stream is totally ordered for every reader.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "queued", "started", "progress", "done", "failed", "cancelled"
	// Done/Total/Cell mirror experiment.Options.Progress for progress events.
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	Cell  string `json:"cell,omitempty"`
	// Error carries the failure message on failed/cancelled events.
	Error string `json:"error,omitempty"`
}

// JobStatus is the wire form of a job (GET /v1/jobs/{id} and the POST
// response). Result is the raw result payload — byte-identical across
// cache hits by construction.
type JobStatus struct {
	ID     string  `json:"id"`
	Hash   string  `json:"hash"`
	Spec   JobSpec `json:"spec"`
	Status string  `json:"status"`
	// Cached marks a job answered from the result cache without running.
	Cached bool `json:"cached,omitempty"`
	// Deduped marks a submission that attached to an in-flight identical job.
	Deduped bool `json:"deduped,omitempty"`
	// Source reports how a done job's bytes were obtained: "computed",
	// "cache", or "peer" (peer cache fill instead of recompute).
	Source string          `json:"source,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// job is the server-side job record.
type job struct {
	id   string
	hash string
	spec CanonicalSpec

	cancel context.CancelFunc // set while running; cancels the run
	done   chan struct{}      // closed on reaching a terminal state

	mu       sync.Mutex
	status   string
	cached   bool
	source   string
	err      string
	result   []byte
	events   []Event
	subs     map[chan Event]struct{}
	started  time.Time
	finished time.Time
}

func newJob(id, hash string, spec CanonicalSpec) *job {
	j := &job{
		id:     id,
		hash:   hash,
		spec:   spec,
		done:   make(chan struct{}),
		status: StatusQueued,
		subs:   make(map[chan Event]struct{}),
	}
	j.emit(Event{Type: "queued"})
	return j
}

// emit appends an event and fans it out to subscribers. Slow subscribers
// never block the job: a full subscriber channel drops that event for that
// subscriber only (it still sees the terminal state via channel close and
// can fetch the full history again).
func (j *job) emit(ev Event) {
	j.mu.Lock()
	j.emitLocked(ev)
	j.mu.Unlock()
}

func (j *job) emitLocked(ev Event) {
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe returns the event history so far plus a live channel for
// subsequent events. The channel is closed once the job reaches a terminal
// state. Call the returned cancel func when done reading.
func (j *job) subscribe() (replay []Event, live <-chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]Event(nil), j.events...)
	if j.terminalLocked() {
		closed := make(chan Event)
		close(closed)
		return replay, closed, func() {}
	}
	ch := make(chan Event, 256)
	j.subs[ch] = struct{}{}
	return replay, ch, func() {
		j.mu.Lock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
}

func (j *job) terminalLocked() bool {
	return j.status == StatusDone || j.status == StatusFailed || j.status == StatusCancelled
}

// setRunning transitions queued→running.
func (j *job) setRunning() {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.emit(Event{Type: "started"})
}

// finish transitions to a terminal state, emits the terminal event, closes
// subscriber channels, and releases waiters. The status flip, the terminal
// event and the closes share one critical section: a subscribe that sees
// the terminal status must also see the terminal event in its replay.
func (j *job) finish(status string, result []byte, errMsg string) {
	typ := map[string]string{
		StatusDone:      "done",
		StatusFailed:    "failed",
		StatusCancelled: "cancelled",
	}[status]
	j.mu.Lock()
	if j.terminalLocked() {
		j.mu.Unlock()
		return
	}
	j.status = status
	j.result = result
	j.err = errMsg
	j.finished = time.Now()
	j.emitLocked(Event{Type: typ, Error: errMsg})
	for ch := range j.subs {
		close(ch)
		delete(j.subs, ch)
	}
	j.mu.Unlock()
	close(j.done)
}

// snapshot renders the job's current wire status.
func (j *job) snapshot() (JobStatus, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	wire, err := j.spec.Wire()
	if err != nil {
		return JobStatus{}, err
	}
	return JobStatus{
		ID:     j.id,
		Hash:   j.hash,
		Spec:   wire,
		Status: j.status,
		Cached: j.cached,
		Source: j.source,
		Error:  j.err,
		Result: append(json.RawMessage(nil), j.result...),
	}, nil
}

// expired reports whether a terminal job finished more than ttl ago.
func (j *job) expired(now time.Time, ttl time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminalLocked() && !j.finished.IsZero() && now.Sub(j.finished) > ttl
}
