// Package blobstore is idylld's content-addressed byte store: a bounded
// in-memory LRU with optional disk persistence, used through Get and Put.
// The daemon keeps two instances — whole-job results ("cache") and warmup
// checkpoints ("ckpt"). Keys are SHA-256 hex content addresses; identical
// keys name identical bytes, which is what makes the memory and disk tiers
// (and, for results, a peer's store) interchangeable.
//
// Disk blobs are wrapped in the integrity checksum envelope. A blob that
// fails to verify on read is quarantined to <key>.corrupt and reported as a
// miss, so damage on the substrate costs a recompute, never a wrong or
// failed job. Disk I/O runs outside the mutex: a memory hit never queues
// behind a slow disk.
//
// Counting rule: every Get counts exactly once, as a hit when it returns
// bytes (memory or disk) and as a miss otherwise. Disk hits are a subset of
// hits. Put counts nothing.
package blobstore

import (
	"container/list"
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
	Hits     uint64 // Gets that returned bytes
	Misses   uint64 // Gets that found nothing
	DiskHits uint64 // subset of Hits read off disk

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

	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	stats   Stats

	faults *fault.Injector // nil = injection disabled

	// testDiskDelay, when non-nil, runs at the top of every disk read and
	// write — the injected slow disk the race and lock-scope tests use.
	testDiskDelay func()
}

type entry struct {
	key  string
	data []byte
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
	}, nil
}

// SetFaults arms the fault-injection sites <name>.disk.read and
// <name>.disk.write. Call before the store sees traffic; a nil injector
// disables injection.
func (s *Store) SetFaults(inj *fault.Injector) { s.faults = inj }

// Get returns the blob under key from memory, else from disk (a disk hit
// repopulates memory). The returned slice must not be modified.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		s.stats.Hits++
		data := el.Value.(*entry).data
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

// Quarantine evicts key from memory and moves its disk blob aside as
// damaged. Callers use it when bytes that verified at the envelope level
// turn out to be undecodable one level up (e.g. checkpoint Resume fails),
// so the next Get misses instead of re-serving poison.
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
