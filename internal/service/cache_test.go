package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"idyll/internal/blobstore"
)

func hashOf(i int) string {
	return fmt.Sprintf("%064x", i)
}

// resultCache returns the result store of a server configured with the
// given memory bound and disk directory — the store jobs are cached in.
func resultCache(t *testing.T, entries int, dir string) *blobstore.Store {
	t.Helper()
	srv, _ := newTestServer(t, Config{
		Workers:      1,
		CacheEntries: entries,
		CacheDir:     dir,
		Runner:       stubRunner(0),
	})
	return srv.cache
}

func TestResultCacheLRU(t *testing.T) {
	c := resultCache(t, 2, "")
	c.Put(hashOf(1), []byte("one"))
	c.Put(hashOf(2), []byte("two"))
	if _, ok := c.Get(hashOf(1)); !ok { // 1 becomes most recent
		t.Fatal("entry 1 missing")
	}
	c.Put(hashOf(3), []byte("three")) // evicts 2
	if _, ok := c.Get(hashOf(2)); ok {
		t.Error("entry 2 should have been evicted")
	}
	if raw, ok := c.Get(hashOf(1)); !ok || string(raw) != "one" {
		t.Errorf("entry 1 = %q, %v", raw, ok)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestResultCacheDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1 := resultCache(t, 4, dir)
	want := []byte(`{"result":42}`)
	if err := c1.Put(hashOf(7), want); err != nil {
		t.Fatal(err)
	}

	// A fresh server over the same dir (a daemon restart) serves the result.
	c2 := resultCache(t, 4, dir)
	got, ok := c2.Get(hashOf(7))
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("after restart: got %q, %v", got, ok)
	}
	if diskHits := c2.Stats().DiskHits; diskHits != 1 {
		t.Errorf("diskHits = %d, want 1", diskHits)
	}

	// Memory eviction falls back to disk transparently.
	small := resultCache(t, 1, dir)
	small.Put(hashOf(8), []byte("evictor-a"))
	small.Put(hashOf(9), []byte("evictor-b")) // evicts 8 from memory
	if raw, ok := small.Get(hashOf(8)); !ok || string(raw) != "evictor-a" {
		t.Errorf("disk fallback after eviction: %q, %v", raw, ok)
	}
}

func TestResultCacheRejectsBadHashPaths(t *testing.T) {
	dir := t.TempDir()
	c := resultCache(t, 4, dir)
	// A non-hex key must never touch the filesystem (path traversal guard);
	// it still works as a memory-only key.
	key := "../escape"
	c.Put(key, []byte("x"))
	for _, name := range []string{"escape", "escape.json"} {
		if _, err := os.Stat(filepath.Join(filepath.Dir(dir), name)); err == nil {
			t.Fatalf("non-hash key escaped the cache directory as %s", name)
		}
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Errorf("non-hash key created %d files in cache dir", len(entries))
	}
	if raw, ok := c.Get(key); !ok || string(raw) != "x" {
		t.Errorf("memory path broken for non-hash key: %q, %v", raw, ok)
	}
}

func TestResultCacheAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	c := resultCache(t, 4, dir)
	for i := 0; i < 10; i++ {
		if err := c.Put(hashOf(i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !blobstore.ValidKey(e.Name()) {
			t.Errorf("leftover non-result file %q in cache dir", e.Name())
		}
	}
	if len(entries) != 10 {
		t.Errorf("cache dir has %d files, want 10", len(entries))
	}
}
