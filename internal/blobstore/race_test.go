package blobstore

import (
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

// TestConcurrentDiskSpill spills many distinct keys to a slow disk while
// concurrent callers of the same keys look them up and, on a miss, compute
// and Put them — the way the warmup-checkpoint path uses the store.
// Invariants: every caller sees the right bytes, and the counters balance
// (hits + misses == lookups, one miss per compute).
func TestConcurrentDiskSpill(t *testing.T) {
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
				data, ok := s.Get(key(k))
				calls.Add(1)
				if !ok {
					computes[k].Add(1)
					time.Sleep(100 * time.Microsecond)
					data = []byte(want)
					if err := s.Put(key(k), data); err != nil {
						t.Errorf("key %d: %v", k, err)
					}
				}
				if string(data) != want {
					t.Errorf("key %d: got %q, want %q", k, data, want)
				}
			}(k)
		}
	}
	wg.Wait()

	// A key computes more than once whenever two callers miss it before
	// either Put lands, or when other keys churn it out of the memory slot
	// before its slow disk write finishes. What must hold: every key
	// computed at least once, each compute followed exactly one miss, and
	// hits + misses balance the total lookups — no lost or double-counted
	// caller under the race.
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
