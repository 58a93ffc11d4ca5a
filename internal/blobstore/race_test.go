package blobstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These tests widen the window between the memory tier and the disk tier
// with an injected slow disk (testDiskDelay) and hammer the store from many
// goroutines. They are most valuable under -race (CI runs this package in
// the service race step); without -race they still assert the logical
// invariants.

// TestConcurrentDiskSpillSingleflight spills many distinct keys to a slow
// disk while concurrent readers of the same keys pile onto the singleflight
// path. Invariants: each key computes at most once, every caller sees the
// right bytes, and the counters balance (hits + misses == calls).
func TestConcurrentDiskSpillSingleflight(t *testing.T) {
	s := newStore(t, 2, t.TempDir()) // tiny memory tier forces constant spill
	s.testDiskDelay = func() { time.Sleep(200 * time.Microsecond) }

	const keys = 8
	const callersPerKey = 6
	var computes [keys]atomic.Int64
	var calls atomic.Int64

	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		for c := 0; c < callersPerKey; c++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				want := fmt.Sprintf("blob-%d", k)
				data, _, err := s.GetOrCompute(context.Background(), key(k), func() ([]byte, error) {
					computes[k].Add(1)
					time.Sleep(100 * time.Microsecond)
					return []byte(want), nil
				})
				calls.Add(1)
				if err != nil {
					t.Errorf("key %d: %v", k, err)
					return
				}
				if string(data) != want {
					t.Errorf("key %d: got %q, want %q", k, data, want)
				}
			}(k)
		}
	}
	wg.Wait()

	// A key CAN legitimately compute more than once here: the memory slot can
	// be churned out by other keys in the window between putLocked and the
	// slow diskPut landing. What must hold: every key computed at least once,
	// each compute was accounted as a miss, and hits + misses balance the
	// total calls — no lost or double-counted caller under the race.
	var totalComputes uint64
	for k := 0; k < keys; k++ {
		got := computes[k].Load()
		if got < 1 {
			t.Fatalf("key %d never computed", k)
		}
		totalComputes += uint64(got)
	}
	st := s.Stats()
	if st.Hits+st.Misses != uint64(calls.Load()) {
		t.Fatalf("counter imbalance: hits %d + misses %d != calls %d",
			st.Hits, st.Misses, calls.Load())
	}
	if st.Misses != totalComputes {
		t.Fatalf("misses = %d, want %d (one per compute)", st.Misses, totalComputes)
	}
}

// TestEvictionRacesDiskHit pins the recovery path: one goroutine loop
// evicts a key from the 1-entry memory tier by putting other keys, while
// readers keep fetching the victim — every read must land the right bytes,
// served from disk when memory just lost it.
func TestEvictionRacesDiskHit(t *testing.T) {
	s := newStore(t, 1, t.TempDir())
	s.testDiskDelay = func() { time.Sleep(100 * time.Microsecond) }

	victim := key(100)
	s.Put(victim, []byte("victim"))

	stop := make(chan struct{})
	evictorDone := make(chan struct{})
	go func() { // evictor: churn the single memory slot
		defer close(evictorDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Put(key(200+i%4), []byte("churn"))
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				data, ok := s.Get(victim)
				if !ok {
					t.Error("disk-backed victim vanished during eviction churn")
					return
				}
				if string(data) != "victim" {
					t.Errorf("victim bytes corrupted: %q", data)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { readers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("timeout: eviction/disk-hit race wedged")
	}
	close(stop)
	<-evictorDone
}

// TestRemoteFillServesBeforeCompute pins the fleet peer-fill path: after a
// local miss the installed hook supplies the bytes, compute never runs, and
// the fill counts as a hit + remoteHit and is cached locally.
func TestRemoteFillServesBeforeCompute(t *testing.T) {
	s := newStore(t, 4, "")
	fills := 0
	s.SetRemoteFill(func(_ context.Context, k string) ([]byte, bool) {
		fills++
		if k == key(1) {
			return []byte("from-peer"), true
		}
		return nil, false
	})

	data, hit, err := s.GetOrCompute(context.Background(), key(1), func() ([]byte, error) {
		t.Fatal("compute ran despite remote fill")
		return nil, nil
	})
	if err != nil || !hit || string(data) != "from-peer" {
		t.Fatalf("remote fill: data=%q hit=%v err=%v", data, hit, err)
	}
	if fills != 1 {
		t.Fatalf("remote hook called %d times, want 1", fills)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 0 || st.RemoteHits != 1 {
		t.Fatalf("stats = hits %d misses %d remote %d, want 1/0/1", st.Hits, st.Misses, st.RemoteHits)
	}
	// The fill was cached: a plain Get (local-only) now finds it.
	if got, ok := s.Get(key(1)); !ok || string(got) != "from-peer" {
		t.Fatal("remote fill not cached locally")
	}
}

// TestRemoteFillMissFallsBackToCompute: a hook that has nothing must not
// block the compute path or poison the counters.
func TestRemoteFillMissFallsBackToCompute(t *testing.T) {
	s := newStore(t, 4, "")
	s.SetRemoteFill(func(context.Context, string) ([]byte, bool) { return nil, false })
	data, hit, err := s.GetOrCompute(context.Background(), key(2), func() ([]byte, error) {
		return []byte("computed"), nil
	})
	if err != nil || hit || string(data) != "computed" {
		t.Fatalf("fallback: data=%q hit=%v err=%v", data, hit, err)
	}
	if st := s.Stats(); st.Misses != 1 || st.RemoteHits != 0 {
		t.Fatalf("stats = misses %d remote %d, want 1/0", st.Misses, st.RemoteHits)
	}
}

// TestGetNeverConsultsRemote pins the anti-recursion contract: Get is the
// method peer-serving HTTP handlers call, so it must stay local even with a
// hook installed — otherwise peers asking peers would loop.
func TestGetNeverConsultsRemote(t *testing.T) {
	s := newStore(t, 4, "")
	s.SetRemoteFill(func(context.Context, string) ([]byte, bool) {
		t.Fatal("Get consulted the remote hook")
		return nil, false
	})
	if _, ok := s.Get(key(3)); ok {
		t.Fatal("Get fabricated a hit")
	}
}

// TestRemoteFillSharedBySingleflight: joiners of a flight whose leader was
// served by remote fill share the filled bytes and count as hits.
func TestRemoteFillSharedBySingleflight(t *testing.T) {
	s := newStore(t, 4, "")
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	s.SetRemoteFill(func(context.Context, string) ([]byte, bool) {
		once.Do(func() { close(entered) })
		<-gate
		return []byte("peer-bytes"), true
	})

	const joiners = 4
	var wg sync.WaitGroup
	results := make([]string, joiners+1)
	for i := 0; i <= joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _, err := s.GetOrCompute(context.Background(), key(4), func() ([]byte, error) {
				t.Error("compute ran despite remote fill")
				return nil, errors.New("unreachable")
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = string(data)
		}(i)
	}
	<-entered // leader is inside the hook; joiners pile onto the flight
	close(gate)
	wg.Wait()
	for i, r := range results {
		if r != "peer-bytes" {
			t.Fatalf("caller %d got %q", i, r)
		}
	}
	if st := s.Stats(); st.Misses != 0 || st.RemoteHits != 1 || st.Hits != joiners+1 {
		t.Fatalf("stats = hits %d misses %d remote %d, want %d/0/1",
			st.Hits, st.Misses, st.RemoteHits, joiners+1)
	}
}

// TestMemoryHitDoesNotWaitForDisk pins the lock scope: while one caller is
// stuck in a slow disk read of key A, a memory hit on key B returns at once.
func TestMemoryHitDoesNotWaitForDisk(t *testing.T) {
	s := newStore(t, 4, t.TempDir())
	s.Put(key(2), []byte("b"))
	inDisk := make(chan struct{})
	release := make(chan struct{})
	s.testDiskDelay = func() {
		close(inDisk)
		<-release
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Get(key(1)) // A: not in memory, so it reads the slow disk
	}()
	<-inDisk
	got := make(chan []byte, 1)
	go func() {
		data, _ := s.Get(key(2))
		got <- data
	}()
	select {
	case data := <-got:
		if string(data) != "b" {
			t.Errorf("memory hit = %q", data)
		}
	case <-time.After(5 * time.Second):
		t.Error("memory hit on B queued behind the disk read of A")
	}
	close(release)
	<-done
}

// TestGetOrComputeSharesDiskRead: concurrent callers of a key that lives
// only on disk share the leader's single disk read.
func TestGetOrComputeSharesDiskRead(t *testing.T) {
	dir := t.TempDir()
	newStore(t, 1, dir).Put(key(1), []byte("on-disk"))
	s := newStore(t, 4, dir)
	var reads atomic.Int64
	s.testDiskDelay = func() {
		reads.Add(1)
		time.Sleep(5 * time.Millisecond)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, hit, err := s.GetOrCompute(context.Background(), key(1), func() ([]byte, error) {
				return nil, errors.New("compute ran for an entry on disk")
			})
			if err != nil || !hit || string(data) != "on-disk" {
				t.Errorf("data=%q hit=%v err=%v", data, hit, err)
			}
		}()
	}
	wg.Wait()
	if n := reads.Load(); n != 1 {
		t.Fatalf("disk reads = %d, want 1 shared by every caller", n)
	}
	if st := s.Stats(); st.Hits != 8 || st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 8 hits, 1 disk hit, 0 misses", st)
	}
}
