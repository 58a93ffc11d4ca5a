package fleet

import (
	"context"
	"errors"
	"sync"
	"time"

	"idyll/internal/fault"
	"idyll/internal/service"
)

// Filler is the worker-side peer cache client: its ResultFill is the
// service.Config.PeerFill hook that lets a worker pull a result from the
// peers the coordinator's copyset hint names before recomputing it.
type Filler struct {
	mu      sync.Mutex
	self    string // this worker's own base URL, excluded from every probe
	clients map[string]*service.Client
	timeout time.Duration
	faults  *fault.Injector
	metrics interface{ Inc(string, uint64) }
}

// NewFiller returns a filler for the worker reachable at self (may be
// empty when unknown).
func NewFiller(self string) *Filler {
	return &Filler{
		self:    self,
		clients: make(map[string]*service.Client),
		timeout: 5 * time.Second,
	}
}

// SetFaults arms deterministic fault injection (sites "peer.fill" and
// "peer.fill.payload") on peer clients created after the call; call it
// before the first fill.
func (f *Filler) SetFaults(inj *fault.Injector) {
	f.mu.Lock()
	f.faults = inj
	f.mu.Unlock()
}

// SetMetrics wires the verify-failure counter (peer_verify_failures) into
// the worker's metric set.
func (f *Filler) SetMetrics(m interface{ Inc(string, uint64) }) {
	f.mu.Lock()
	f.metrics = m
	f.mu.Unlock()
}

func (f *Filler) inc(name string) {
	f.mu.Lock()
	m := f.metrics
	f.mu.Unlock()
	if m != nil {
		m.Inc(name, 1)
	}
}

// client returns a cached non-retrying client for url. Fills never retry
// one peer — a miss or error falls through to the next candidate.
func (f *Filler) client(url string) *service.Client {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.clients[url]
	if !ok {
		opts := []service.ClientOption{service.WithRetry(service.NoRetry())}
		if f.faults != nil {
			opts = append(opts, service.WithFaults(f.faults, "peer.fill"))
		}
		c = service.NewClient(url, opts...)
		f.clients[url] = c
	}
	return c
}

// ResultFill is the service.Config.PeerFill hook: fetch the result bytes
// for hash from the hinted peers (copyset hint), first hit wins. Each peer
// is probed under ctx with the per-peer timeout. A payload that fails
// checksum verification is dropped like a miss and counted under
// peer_verify_failures — the next hint (or a recompute) supplies good bytes.
func (f *Filler) ResultFill(ctx context.Context, hash string, hints []string) ([]byte, bool) {
	for _, url := range hints {
		if url == "" || url == f.self {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, f.timeout)
		data, ok, err := f.client(url).CacheGet(pctx, hash)
		cancel()
		if err == nil && ok {
			return data, true
		}
		var ce *service.ChecksumError
		if errors.As(err, &ce) {
			f.inc("peer_verify_failures")
		}
	}
	return nil, false
}
