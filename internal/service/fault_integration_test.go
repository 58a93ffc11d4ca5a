package service

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"context"

	"idyll/internal/fault"
	"idyll/internal/integrity"
)

func mustFaults(t *testing.T, spec string) *fault.Injector {
	t.Helper()
	inj, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// An injected worker panic fails exactly that job; the server and every
// subsequent job survive, and the injection shows up in /metrics.
func TestInjectedWorkerPanicFailsJobOnly(t *testing.T) {
	srv, c := newTestServer(t, Config{
		Workers: 1,
		Runner:  stubRunner(1),
		Faults:  mustFaults(t, "seed=3;worker.run:panic:count=1"),
	})
	ctx := context.Background()

	st, err := c.SubmitAndWait(ctx, cellSpec(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusFailed || !strings.Contains(st.Error, "panicked") {
		t.Fatalf("status = %s (%s), want failed via injected panic", st.Status, st.Error)
	}

	// The injection budget (count=1) is spent: the next job runs clean.
	st2, err := c.SubmitAndWait(ctx, cellSpec(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Status != StatusDone {
		t.Fatalf("second job status = %s (%s), want done", st2.Status, st2.Error)
	}
	// Injection counters materialize at /metrics render time.
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"idylld_faults_injected 1",
		`idylld_faults_injected_site{site="worker.run"} 1`} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	_ = srv
}

// A bit-flipped disk cache entry is detected by the checksum envelope,
// quarantined to *.corrupt, counted, and transparently recomputed — the
// resubmission returns bytes identical to the original computation.
func TestDiskCorruptionQuarantineAndRecompute(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	srv, c := newTestServer(t, Config{
		Workers:      1,
		CacheEntries: 1, // single memory slot: the second spec evicts the first
		CacheDir:     dir,
		Runner: func(ctx context.Context, spec CanonicalSpec,
			p func(int, int, string)) ([]byte, error) {
			runs.Add(1)
			return stubRunner(1)(ctx, spec, p)
		},
		Faults: mustFaults(t, "seed=9;cache.disk.read:bitflip:count=1"),
	})
	ctx := context.Background()

	st, err := c.SubmitAndWait(ctx, cellSpec(1), nil)
	if err != nil || st.Status != StatusDone {
		t.Fatalf("first job: %v %+v", err, st)
	}
	if _, err := c.SubmitAndWait(ctx, cellSpec(2), nil); err != nil {
		t.Fatal(err)
	}

	// Resubmission of the first spec reads its entry from disk; the armed
	// bitflip corrupts that read, so the job must recompute — and match.
	st2, err := c.SubmitAndWait(ctx, cellSpec(1), nil)
	if err != nil || st2.Status != StatusDone {
		t.Fatalf("resubmission: %v %+v", err, st2)
	}
	if string(st2.Result) != string(st.Result) {
		t.Fatal("recomputed bytes differ from the original result")
	}
	if runs.Load() != 3 {
		t.Fatalf("runs = %d, want 3 (corrupt entry recomputed)", runs.Load())
	}
	if cs := srv.cache.Stats(); cs.VerifyFailures != 1 || cs.Quarantined != 1 {
		t.Fatalf("verify failures = %d, quarantined = %d, want 1/1", cs.VerifyFailures, cs.Quarantined)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("corrupt files = %v (err %v), want exactly one", matches, err)
	}
	// The recompute repaired the disk tier: the entry decodes again.
	hash := st.Hash
	blob, err := os.ReadFile(filepath.Join(dir, hash))
	if err != nil {
		t.Fatalf("repaired entry missing: %v", err)
	}
	payload, err := integrity.Unwrap(blob)
	if err != nil || string(payload) != string(st.Result) {
		t.Fatalf("repaired entry does not verify: %v", err)
	}
}

// Disk entries older daemons left behind are misses, never answers and never
// errors: a pre-envelope blob under the key is quarantined, and a result
// under the old <hash>.json name is not read at all. Each job recomputes
// once and its rewritten entry verifies.
func TestLegacyDiskEntryTreatedAsMiss(t *testing.T) {
	dir := t.TempDir()
	h1, h2 := mustHash(t, cellSpec(1)), mustHash(t, cellSpec(2))
	stale := []byte(`{"old":"format"}`)
	if err := os.WriteFile(filepath.Join(dir, h1), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, h2+".json"), integrity.Wrap(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, c := newTestServer(t, Config{Workers: 1, CacheDir: dir, Runner: stubRunner(1)})
	for _, seed := range []uint64{1, 2} {
		st, err := c.SubmitAndWait(context.Background(), cellSpec(seed), nil)
		if err != nil || st.Status != StatusDone || st.Cached {
			t.Fatalf("seed %d: %v %+v, want a fresh run", seed, err, st)
		}
		if string(st.Result) == string(stale) {
			t.Fatalf("seed %d: legacy entry served", seed)
		}
		blob, err := os.ReadFile(filepath.Join(dir, st.Hash))
		if _, uerr := integrity.Unwrap(blob); err != nil || uerr != nil {
			t.Fatalf("seed %d: rewritten entry does not verify: %v %v", seed, err, uerr)
		}
	}
	if cs := srv.cache.Stats(); cs.VerifyFailures != 1 || cs.Quarantined != 1 {
		t.Fatalf("verify failures = %d, quarantined = %d, want 1/1", cs.VerifyFailures, cs.Quarantined)
	}
}

// The client rejects peer-fill payloads whose bytes disagree with the
// server's X-Idyll-Checksum header, and accepts them when the header is
// correct or absent (older peers).
func TestClientVerifiesChecksumHeader(t *testing.T) {
	hash := strings.Repeat("cd", 32)
	payload := []byte(`{"the":"bytes"}`)
	var mode atomic.Value // "good" | "bad" | "none"
	mode.Store("good")
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load() {
		case "good":
			w.Header().Set(HeaderChecksum, integrity.SumHex(payload))
		case "bad":
			w.Header().Set(HeaderChecksum, strings.Repeat("00", 32))
		}
		w.WriteHeader(http.StatusOK)
		w.Write(payload)
	}))
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL, WithRetry(NoRetry()))
	ctx := context.Background()

	data, ok, err := c.CacheGet(ctx, hash)
	if err != nil || !ok || string(data) != string(payload) {
		t.Fatalf("verified fetch failed: %v", err)
	}

	mode.Store("bad")
	_, _, err = c.CacheGet(ctx, hash)
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("mismatched checksum not rejected: %v", err)
	}

	mode.Store("none")
	data, ok, err = c.CacheGet(ctx, hash)
	if err != nil || !ok || string(data) != string(payload) {
		t.Fatalf("header-less fetch (older peer) failed: %v", err)
	}
}

// Wait survives a mid-stream disconnect: it re-establishes the SSE stream,
// deduplicates replayed history by sequence number, and returns the final
// status — never a truncated-stream error.
func TestWaitResumesAfterStreamDisconnect(t *testing.T) {
	const id = "j1"
	var attempts, finished atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/"+id+"/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		n := attempts.Add(1)
		if n == 1 {
			// First attempt: two events, then the connection drops with no
			// terminal event (handler return closes the stream).
			fmt.Fprintf(w, "event: progress\ndata: {\"seq\":0,\"type\":\"progress\",\"done\":1,\"total\":4}\n\n")
			fmt.Fprintf(w, "event: progress\ndata: {\"seq\":1,\"type\":\"progress\",\"done\":2,\"total\":4}\n\n")
			return
		}
		// Resumed attempt: full history replay plus the terminal event.
		for i := 0; i < 4; i++ {
			fmt.Fprintf(w, "event: progress\ndata: {\"seq\":%d,\"type\":\"progress\",\"done\":%d,\"total\":4}\n\n", i, i+1)
		}
		fmt.Fprintf(w, "event: done\ndata: {\"seq\":4,\"type\":\"done\"}\n\n")
		finished.Store(1)
	})
	mux.HandleFunc("GET /v1/jobs/"+id, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if finished.Load() == 1 {
			fmt.Fprintf(w, `{"id":%q,"status":"done","result":{}}`, id)
			return
		}
		fmt.Fprintf(w, `{"id":%q,"status":"running"}`, id)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)

	var got []int
	st, err := NewClient(hs.URL).Wait(context.Background(), id, func(ev Event) {
		got = append(got, ev.Seq)
	})
	if err != nil {
		t.Fatalf("Wait failed across disconnect: %v", err)
	}
	if st.Status != StatusDone {
		t.Fatalf("status = %s, want done", st.Status)
	}
	if attempts.Load() < 2 {
		t.Fatal("stream was never re-established")
	}
	want := []int{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want each of %v exactly once", got, want)
	}
	for i, seq := range want {
		if got[i] != seq {
			t.Fatalf("events = %v, want %v (replay not deduplicated)", got, want)
		}
	}
}
