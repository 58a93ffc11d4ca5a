package blobstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

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

// Every Get counts once: a hit when it returns bytes, a miss otherwise. Put
// counts nothing.
func TestGetPutCounts(t *testing.T) {
	s := newStore(t, 4, "")
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("Get fabricated a hit")
	}
	s.Put(key(1), []byte("blob"))
	if data, ok := s.Get(key(1)); !ok || string(data) != "blob" {
		t.Fatalf("Get after Put = %q, %v", data, ok)
	}
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
// caller's recomputed Put rewrites a good entry.
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

			if data, ok := s.Get(key(1)); ok {
				t.Fatalf("damaged blob served: %q", data)
			}
			if st := s.Stats(); st.VerifyFailures != 1 || st.Quarantined != 1 || st.DiskHits != 0 || st.Misses != 1 {
				t.Fatalf("stats = %+v, want one verify failure, one quarantine, one miss, no disk hit", st)
			}
			if _, err := os.Stat(filepath.Join(dir, key(1)+".corrupt")); err != nil {
				t.Fatalf("damaged blob not quarantined: %v", err)
			}
			// The recompute's Put repairs the disk tier: a fresh store reads it.
			if err := s.Put(key(1), []byte("good")); err != nil {
				t.Fatal(err)
			}
			if data, ok := newStore(t, 1, dir).Get(key(1)); !ok || string(data) != "good" {
				t.Fatalf("repaired entry = %q, %v", data, ok)
			}
		})
	}
}
