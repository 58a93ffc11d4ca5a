package fleet

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"idyll/internal/fault"
	"idyll/internal/service"
)

// Filler is the worker-side peer cache client: it implements the
// service.Config hooks (PeerFill, CkptFill, OnPeers) that let a worker pull
// a result or a warmup checkpoint from a peer before recomputing it. The
// peer list is dynamic — the coordinator attaches X-Idyll-Peers to every
// dispatch, so workers started on ephemeral ports learn their peers from
// traffic, and a static -peers flag seeds the list for coordinator-less
// setups.
type Filler struct {
	mu      sync.Mutex
	self    string // this worker's own base URL, excluded from every probe
	peers   []string
	clients map[string]*service.Client
	timeout time.Duration
	faults  *fault.Injector
	metrics interface{ Inc(string, uint64) }
}

// NewFiller returns a filler for the worker reachable at self (may be
// empty when unknown), seeded with the given static peer URLs.
func NewFiller(self string, peers []string) *Filler {
	f := &Filler{
		self:    self,
		clients: make(map[string]*service.Client),
		timeout: 5 * time.Second,
	}
	f.UpdatePeers(peers)
	return f
}

// UpdatePeers replaces the peer list (the OnPeers hook). Self and
// duplicates are filtered; order is normalized so fills probe peers
// deterministically.
func (f *Filler) UpdatePeers(peers []string) {
	seen := make(map[string]bool)
	var next []string
	for _, p := range peers {
		if p == "" || p == f.self || seen[p] {
			continue
		}
		seen[p] = true
		next = append(next, p)
	}
	sort.Strings(next)
	f.mu.Lock()
	f.peers = next
	f.mu.Unlock()
}

// SetFaults arms deterministic fault injection (sites "peer.fill" and
// "peer.fill.payload") on peer clients created after the call; call it
// before the first fill.
func (f *Filler) SetFaults(inj *fault.Injector) {
	f.mu.Lock()
	f.faults = inj
	f.mu.Unlock()
}

// SetMetrics wires the verify-failure counters (peer_verify_failures,
// ckpt_peer_verify_failures) into the worker's metric set.
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

// Peers returns the current peer list.
func (f *Filler) Peers() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.peers...)
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
// for hash from the hinted peers (copyset hint), first hit wins.
func (f *Filler) ResultFill(ctx context.Context, hash string, hints []string) ([]byte, bool) {
	return f.fill(ctx, hints, hash, (*service.Client).CacheGet, "peer_verify_failures")
}

// CkptFill is the service.Config.CkptFill hook: fetch a warmup checkpoint
// from any current peer. Unlike results, checkpoints carry no copyset
// hints (they are produced as a side effect of jobs, invisible to the
// coordinator), so the filler asks every peer in order.
func (f *Filler) CkptFill(ctx context.Context, key string, _ []string) ([]byte, bool) {
	return f.fill(ctx, f.Peers(), key, (*service.Client).CkptGet, "ckpt_peer_verify_failures")
}

// fill probes urls in order under ctx, each with the per-peer timeout, and
// returns the first verified hit. A payload that fails checksum
// verification is dropped like a miss and counted under verifyFailures —
// the next candidate (or a recompute) supplies good bytes.
func (f *Filler) fill(ctx context.Context, urls []string, key string,
	get func(*service.Client, context.Context, string) ([]byte, bool, error),
	verifyFailures string) ([]byte, bool) {
	for _, url := range urls {
		if url == "" || url == f.self {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, f.timeout)
		data, ok, err := get(f.client(url), pctx, key)
		cancel()
		if err == nil && ok {
			return data, true
		}
		var ce *service.ChecksumError
		if errors.As(err, &ce) {
			f.inc(verifyFailures)
		}
	}
	return nil, false
}
