package blobstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"idyll/internal/fault"
)

// key returns a syntactically valid content address (64 hex chars).
func key(i int) string {
	return fmt.Sprintf("%064x", i)
}

func newStore(t *testing.T, maxEntries int, dir string) *Store {
	t.Helper()
	s, err := New("ckpt", maxEntries, dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGetOrComputeCachesAndCounts(t *testing.T) {
	s := newStore(t, 4, "")
	computes := 0
	compute := func() ([]byte, error) {
		computes++
		return []byte("blob"), nil
	}
	ctx := context.Background()
	data, hit, err := s.GetOrCompute(ctx, key(1), compute)
	if err != nil || hit || string(data) != "blob" {
		t.Fatalf("first call: data=%q hit=%v err=%v", data, hit, err)
	}
	data, hit, err = s.GetOrCompute(ctx, key(1), compute)
	if err != nil || !hit || string(data) != "blob" {
		t.Fatalf("second call: data=%q hit=%v err=%v", data, hit, err)
	}
	if computes != 1 {
		t.Fatalf("compute ran %d times", computes)
	}
	// A plain Get miss counts as a miss, like a computing GetOrCompute.
	if _, ok := s.Get(key(2)); ok {
		t.Fatal("Get fabricated a hit")
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 2 || st.DiskHits != 0 {
		t.Fatalf("stats = %d/%d/%d, want 1/2/0", st.Hits, st.Misses, st.DiskHits)
	}
}

func TestLRUEviction(t *testing.T) {
	s := newStore(t, 2, "")
	s.Put(key(1), []byte("one"))
	s.Put(key(2), []byte("two"))
	if _, ok := s.Get(key(1)); !ok { // touch 1 → 2 becomes LRU
		t.Fatal("key 1 missing")
	}
	s.Put(key(3), []byte("three")) // evicts 2
	if _, ok := s.Get(key(2)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if data, ok := s.Get(key(1)); !ok || string(data) != "one" {
		t.Fatalf("recently used entry = %q, %v", data, ok)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestNewClampsMaxEntries(t *testing.T) {
	s := newStore(t, 0, "")
	s.Put(key(1), []byte("a"))
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	s.Put(key(2), []byte("b"))
	if s.Len() != 1 {
		t.Fatal("clamped store grew past one entry")
	}
}

// An unusable directory fails construction instead of silently dropping
// every later write.
func TestNewFailsOnUnusableDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "regular-file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New("ckpt", 4, file); err == nil {
		t.Fatal("New accepted a regular file as its directory")
	}
}

func TestDiskPersistenceAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	first := newStore(t, 4, dir)
	if err := first.Put(key(7), []byte("persisted")); err != nil {
		t.Fatal(err)
	}

	// A "restarted daemon": a fresh store over the same directory.
	second := newStore(t, 4, dir)
	data, ok := second.Get(key(7))
	if !ok || string(data) != "persisted" {
		t.Fatalf("disk tier lost the entry: %q ok=%v", data, ok)
	}
	if st := second.Stats(); st.Hits != 1 || st.DiskHits != 1 {
		t.Fatalf("stats = hits %d diskHits %d, want 1/1", st.Hits, st.DiskHits)
	}
	// The disk hit repopulated memory: a second read must not touch disk.
	if _, ok := second.Get(key(7)); !ok {
		t.Fatal("entry missing after repopulation")
	}
	if st := second.Stats(); st.DiskHits != 1 {
		t.Fatalf("second read went to disk (diskHits %d)", st.DiskHits)
	}
}

// An eviction from the bounded memory tier must not lose a disk-backed entry.
func TestEvictionFallsBackToDisk(t *testing.T) {
	s := newStore(t, 1, t.TempDir())
	s.Put(key(1), []byte("one"))
	s.Put(key(2), []byte("two")) // evicts 1 from memory, not from disk
	data, ok := s.Get(key(1))
	if !ok || string(data) != "one" {
		t.Fatal("evicted entry not recovered from disk")
	}
}

// Keys that are not content addresses never become file names, but still
// work as memory-only keys.
func TestDiskRejectsNonHashKeys(t *testing.T) {
	dir := t.TempDir()
	s := newStore(t, 4, dir)
	s.Put("../escape", []byte("x"))
	s.Put("UPPER"+key(1)[5:], []byte("y"))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("non-hash key reached disk: %v", entries[0].Name())
	}
	if _, err := os.Stat(filepath.Join(dir, "..", "escape")); err == nil {
		t.Fatal("path traversal escaped the store directory")
	}
	if data, ok := s.Get("../escape"); !ok || string(data) != "x" {
		t.Fatalf("memory path broken for non-hash key: %q, %v", data, ok)
	}
}

// Writes are atomic (no temp file survives) and every file is named by
// exactly its content address.
func TestDiskFilesAreContentAddresses(t *testing.T) {
	dir := t.TempDir()
	s := newStore(t, 4, dir)
	var want []string
	for i := 0; i < 10; i++ {
		if err := s.Put(key(i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
		want = append(want, key(i))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("disk contents = %v, want exactly the 10 keys", got)
	}
}

// Put reports a failed disk write, and the memory tier keeps the entry.
func TestPutReturnsDiskWriteError(t *testing.T) {
	inj, err := fault.Parse("seed=1;cache.disk.write:error:count=1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("cache", 4, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaults(inj)
	if err := s.Put(key(1), []byte("x")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Put err = %v, want the injected write error", err)
	}
	if data, ok := s.Get(key(1)); !ok || string(data) != "x" {
		t.Fatalf("memory tier lost the entry: %q, %v", data, ok)
	}
}

// A bit flipped on the disk read is caught by the envelope at each store's
// own fault site: the blob is quarantined, the lookup misses, and the
// recompute rewrites a good entry.
func TestDiskBitflipQuarantinedAndRecomputed(t *testing.T) {
	for _, name := range []string{"cache", "ckpt"} {
		t.Run(name, func(t *testing.T) {
			inj, err := fault.Parse("seed=9;" + name + ".disk.read:bitflip:count=1")
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			s, err := New(name, 1, dir)
			if err != nil {
				t.Fatal(err)
			}
			s.SetFaults(inj)
			s.Put(key(1), []byte("good"))
			s.Put(key(2), []byte("evictor")) // key 1 now lives on disk only

			computes := 0
			data, hit, err := s.GetOrCompute(context.Background(), key(1), func() ([]byte, error) {
				computes++
				return []byte("good"), nil
			})
			if err != nil || hit || string(data) != "good" || computes != 1 {
				t.Fatalf("data=%q hit=%v err=%v computes=%d, want a recompute", data, hit, err, computes)
			}
			if st := s.Stats(); st.VerifyFailures != 1 || st.Quarantined != 1 || st.DiskHits != 0 {
				t.Fatalf("stats = %+v, want one verify failure, one quarantine, no disk hit", st)
			}
			if _, err := os.Stat(filepath.Join(dir, key(1)+".corrupt")); err != nil {
				t.Fatalf("damaged blob not quarantined: %v", err)
			}
			// The recompute repaired the disk tier: a fresh store reads it.
			if data, ok := newStore(t, 1, dir).Get(key(1)); !ok || string(data) != "good" {
				t.Fatalf("repaired entry = %q, %v", data, ok)
			}
		})
	}
}

// Concurrent GetOrCompute calls for one key share a single compute; the
// joiners count as hits.
func TestSingleflight(t *testing.T) {
	s := newStore(t, 4, "")
	const waiters = 8
	gate := make(chan struct{})
	var computes int
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := s.GetOrCompute(context.Background(), key(9), func() ([]byte, error) {
				computes++ // leader-only; the gate serializes entry
				<-gate
				return []byte("once"), nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	// Joiners may arrive before or after the leader finishes, so only the
	// compute count and the hit/miss split are asserted.
	close(gate)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("compute ran %d times under contention", computes)
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != waiters-1 {
		t.Fatalf("stats = %d hits %d misses, want %d/1", st.Hits, st.Misses, waiters-1)
	}
}

// A failed compute propagates its error and caches nothing.
func TestComputeErrorNotCached(t *testing.T) {
	s := newStore(t, 4, "")
	ctx := context.Background()
	boom := errors.New("boom")
	if _, _, err := s.GetOrCompute(ctx, key(3), func() ([]byte, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := s.Get(key(3)); ok {
		t.Fatal("failed compute was cached")
	}
	data, hit, err := s.GetOrCompute(ctx, key(3), func() ([]byte, error) {
		return []byte("recovered"), nil
	})
	if err != nil || hit || string(data) != "recovered" {
		t.Fatalf("retry after failure: data=%q hit=%v err=%v", data, hit, err)
	}
}

// A joiner whose context ends stops waiting on the leader's flight.
func TestJoinerHonoursContext(t *testing.T) {
	s := newStore(t, 4, "")
	gate := make(chan struct{})
	entered := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		s.GetOrCompute(context.Background(), key(5), func() ([]byte, error) {
			close(entered)
			<-gate
			return []byte("late"), nil
		})
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := s.GetOrCompute(ctx, key(5), nil)
	close(gate)
	<-leaderDone
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("joiner err = %v, want its own deadline", err)
	}
}
