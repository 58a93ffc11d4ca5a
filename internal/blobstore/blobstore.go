// Package blobstore is idylld's content-addressed byte store: a bounded
// in-memory LRU with optional disk persistence, singleflight computation
// dedupe and an optional remote-fill hook. The daemon keeps two instances —
// whole-job results ("cache") and warmup checkpoints ("ckpt"). Keys are
// SHA-256 hex content addresses; identical keys name identical bytes, which
// is what makes every tier (memory, disk, a peer) interchangeable.
//
// Disk blobs are wrapped in the integrity checksum envelope. A blob that
// fails to verify on read is quarantined to <key>.corrupt and reported as a
// miss, so damage on the substrate costs a recompute, never a wrong or
// failed job. Disk I/O runs outside the mutex: a memory hit never queues
// behind a slow disk.
//
// Counting rule: every Get and every GetOrCompute call counts exactly once.
// A Get is a hit when it returns bytes (memory or disk) and a miss
// otherwise. A GetOrCompute is a miss when it ran compute itself and a hit
// otherwise: served from memory, disk or a remote fill, or joined another
// caller's flight. Disk and remote hits are subsets of hits.
package blobstore

import (
	"container/list"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"

	"idyll/internal/fault"
	"idyll/internal/integrity"
)

// keyPattern guards file names: only lowercase-hex SHA-256 keys ever touch
// the disk directory.
var keyPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// ValidKey reports whether key is a content address (64 lowercase hex
// chars), the only form allowed to name a file or come in over HTTP.
func ValidKey(key string) bool { return keyPattern.MatchString(key) }

// Stats are a store's cumulative counters.
type Stats struct {
	Hits       uint64 // lookups that did not run compute themselves
	Misses     uint64 // Get found nothing, or GetOrCompute ran compute
	DiskHits   uint64 // subset of Hits read off disk
	RemoteHits uint64 // subset of Hits filled through the remote hook

	VerifyFailures uint64 // blobs that failed checksum-envelope verification
	Quarantined    uint64 // damaged entries moved aside or evicted
}

// Store is a bounded LRU of blobs with optional disk persistence. The zero
// value is not usable; use New. All methods are safe for concurrent use.
type Store struct {
	name                string // "cache" or "ckpt": error prefix and fault-site stem
	readSite, writeSite string // <name>.disk.read, <name>.disk.write
	max                 int
	dir                 string // "" = memory only

	mu       sync.Mutex
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	inflight map[string]*flight
	stats    Stats

	faults     *fault.Injector // nil = injection disabled
	remoteFill func(ctx context.Context, key string) ([]byte, bool)

	// testDiskDelay, when non-nil, runs at the top of every disk read and
	// write — the injected slow disk the race and lock-scope tests use.
	testDiskDelay func()
}

type entry struct {
	key  string
	data []byte
}

// flight is one in-progress lookup (disk read, remote fill or compute) that
// late arrivals for the same key wait on.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// New returns a store named name holding at most maxEntries blobs in memory
// (minimum 1), persisting to dir when non-empty. The directory is created
// here, and an unusable one is an error. The name picks the fault sites
// <name>.disk.read and <name>.disk.write.
func New(name string, maxEntries int, dir string) (*Store, error) {
	if maxEntries < 1 {
		maxEntries = 1
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("%s store: %w", name, err)
		}
	}
	return &Store{
		name:      name,
		readSite:  name + ".disk.read",
		writeSite: name + ".disk.write",
		max:       maxEntries,
		dir:       dir,
		entries:   make(map[string]*list.Element),
		order:     list.New(),
		inflight:  make(map[string]*flight),
	}, nil
}

// SetFaults arms the fault-injection sites <name>.disk.read and
// <name>.disk.write. Call before the store sees traffic; a nil injector
// disables injection.
func (s *Store) SetFaults(inj *fault.Injector) { s.faults = inj }

// SetRemoteFill installs the fetch-from-peer hook GetOrCompute consults
// after a memory and disk miss, before computing. It runs without the
// store lock and must be safe for concurrent use; a successful fill is
// cached like a computed value. Get never consults it, so a peer serving
// its store over HTTP cannot recurse into its own hook. Install it before
// the store sees traffic.
func (s *Store) SetRemoteFill(fill func(ctx context.Context, key string) ([]byte, bool)) {
	s.remoteFill = fill
}

// Get returns the blob under key from memory, else from disk (a disk hit
// repopulates memory). It never computes and never consults the remote
// hook. The returned slice must not be modified.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	if data, ok := s.memGetLocked(key); ok {
		s.mu.Unlock()
		return data, true
	}
	s.mu.Unlock()

	data, ok := s.diskGet(key)
	s.mu.Lock()
	if ok {
		s.stats.Hits++
		s.stats.DiskHits++
		s.putLocked(key, data)
	} else {
		s.stats.Misses++
	}
	s.mu.Unlock()
	return data, ok
}

// memGetLocked serves a memory hit and counts it. Caller holds s.mu.
func (s *Store) memGetLocked(key string) ([]byte, bool) {
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	s.stats.Hits++
	return el.Value.(*entry).data, true
}

// Put stores data under key in memory and, when configured, on disk. The
// memory tier always takes the entry; the error reports a failed disk write.
func (s *Store) Put(key string, data []byte) error {
	s.mu.Lock()
	s.putLocked(key, data)
	s.mu.Unlock()
	return s.diskPut(key, data)
}

func (s *Store) putLocked(key string, data []byte) {
	if el, ok := s.entries[key]; ok {
		el.Value.(*entry).data = data
		s.order.MoveToFront(el)
		return
	}
	s.entries[key] = s.order.PushFront(&entry{key: key, data: data})
	for s.order.Len() > s.max {
		last := s.order.Back()
		delete(s.entries, last.Value.(*entry).key)
		s.order.Remove(last)
	}
}

// GetOrCompute returns the blob under key, computing and caching it on a
// miss. Concurrent callers with the same key share one flight: its leader
// reads the disk, then tries the remote-fill hook (with ctx), then runs
// compute, and the joiners wait for its bytes. hit reports whether this
// call avoided running compute itself. A joiner whose ctx ends first
// returns ctx.Err(). A failed compute is not cached and its error reaches
// every waiter. A failed disk write is dropped: the bytes are still
// returned and cached in memory.
func (s *Store) GetOrCompute(ctx context.Context, key string, compute func() ([]byte, error)) (data []byte, hit bool, err error) {
	s.mu.Lock()
	if data, ok := s.memGetLocked(key); ok {
		s.mu.Unlock()
		return data, true, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.stats.Hits++
		s.mu.Unlock()
		select {
		case <-f.done:
			return f.data, true, f.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()

	fromDisk, filled := false, false
	if f.data, fromDisk = s.diskGet(key); !fromDisk && s.remoteFill != nil {
		f.data, filled = s.remoteFill(ctx, key)
	}
	if !fromDisk && !filled {
		f.data, f.err = compute()
	}

	s.mu.Lock()
	delete(s.inflight, key)
	switch {
	case fromDisk:
		s.stats.Hits++
		s.stats.DiskHits++
	case filled:
		s.stats.Hits++
		s.stats.RemoteHits++
	default:
		s.stats.Misses++
	}
	if f.err == nil {
		s.putLocked(key, f.data)
	}
	s.mu.Unlock()
	if f.err == nil && !fromDisk {
		_ = s.diskPut(key, f.data) // persistence is an optimization here
	}
	close(f.done)
	return f.data, fromDisk || filled, f.err
}

// Quarantine evicts key from memory and moves its disk blob aside as
// damaged. Callers use it when bytes that verified at the envelope level
// turn out to be undecodable one level up (e.g. checkpoint Resume fails),
// so the next GetOrCompute recomputes instead of re-serving poison.
func (s *Store) Quarantine(key string) {
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.Remove(el)
		delete(s.entries, key)
	}
	s.mu.Unlock()
	path, _ := s.path(key)
	s.quarantine(path)
}

// Len reports how many blobs are resident in memory.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// Stats returns a snapshot of the cumulative counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// path names key's disk file: the key itself, inside dir. Non-hash keys
// and memory-only stores have no file.
func (s *Store) path(key string) (string, bool) {
	if s.dir == "" || !ValidKey(key) {
		return "", false
	}
	return filepath.Join(s.dir, key), true
}

// diskGet reads and verifies key's blob. Any failure — no file, bad key,
// unreadable file, failed verification — is a plain miss, never an error;
// a blob that fails verification is also quarantined.
func (s *Store) diskGet(key string) ([]byte, bool) {
	path, ok := s.path(key)
	if !ok {
		return nil, false
	}
	if s.testDiskDelay != nil {
		s.testDiskDelay()
	}
	if err := s.faults.Err(s.readSite); err != nil {
		return nil, false
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	data, err := integrity.Unwrap(s.faults.Mangle(s.readSite, blob))
	if err != nil {
		s.quarantine(path)
		return nil, false
	}
	return data, true
}

// quarantine counts a damaged blob and moves its file (if any) aside as
// <file>.corrupt, removing it if the rename fails, so the next read is a
// clean miss and the evidence keeps.
func (s *Store) quarantine(path string) {
	s.mu.Lock()
	s.stats.VerifyFailures++
	s.stats.Quarantined++
	s.mu.Unlock()
	if path == "" {
		return
	}
	if os.Rename(path, path+".corrupt") != nil {
		os.Remove(path)
	}
}

// diskPut writes key's blob atomically (temp file, fsync, rename) so a
// crashed process never leaves a torn blob a later one would serve. The
// payload goes to disk wrapped in the checksum envelope.
func (s *Store) diskPut(key string, data []byte) error {
	path, ok := s.path(key)
	if !ok {
		return nil
	}
	if s.testDiskDelay != nil {
		s.testDiskDelay()
	}
	if err := s.faults.Err(s.writeSite); err != nil {
		return fmt.Errorf("%s store: %w", s.name, err)
	}
	blob := s.faults.Mangle(s.writeSite, integrity.Wrap(data))
	tmp, err := os.CreateTemp(s.dir, "."+key+".tmp*")
	if err != nil {
		return fmt.Errorf("%s store: %w", s.name, err)
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(blob)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("%s store: %w", s.name, err)
	}
	return nil
}
