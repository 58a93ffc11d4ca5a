package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A stalled server must charge the stall to every request due during it:
// latency counts from when a request was due, not from when the client's
// single connection got round to it.
func TestLatencyCountsFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"j-1","hash":"h","status":"done","cached":true,"result":{"ok":1}}`))
	}))
	defer srv.Close()

	cat := []entry{{spec: []byte(`{"kind":"cell"}`), accesses: 1, cell: true}}
	reqs := []request{{0, 0}, {50 * time.Millisecond, 0}, {100 * time.Millisecond, 0}}
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	recs, _ := runLoad(context.Background(), hc, srv.URL, cat, reqs, &tracer{})
	for i, r := range recs {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if r.lag > 20*time.Millisecond {
			t.Errorf("request %d started %v late; the generator must not wait for the stall", i, r.lag)
		}
		if !r.hit || !r.coordHit {
			t.Errorf("request %d not classified as a coordinator hit", i)
		}
	}
	if recs[0].latency < stall {
		t.Errorf("stalled request latency %v < stall %v", recs[0].latency, stall)
	}
	for i := 1; i < len(recs); i++ {
		// Due during the stall, answered only once the connection freed.
		if blocked := stall - reqs[i].due; recs[i].latency < blocked {
			t.Errorf("request %d latency %v, want at least %v", i, recs[i].latency, blocked)
		}
	}
}
