package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share Req; Parent links a call to the call that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, so untraced runs pay one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its ID (0 when disabled); end closes it.
func (t *tracer) begin(name string, parent, req int64, start time.Time) int64 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int64, end time.Time) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

// record stores a finished span and returns its ID (0 when disabled).
func (t *tracer) record(name string, parent, req int64, start, end time.Time) int64 {
	id := t.begin(name, parent, req, start)
	t.end(id, end)
	return id
}

// timed runs fn inside a span and returns fn's error.
func (t *tracer) timed(name string, parent, req int64, fn func() error) error {
	start := time.Now()
	err := fn()
	t.record(name, parent, req, start, time.Now())
	return err
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines under dir/spans and returns the path.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Join(dir, "spans"), 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// traceOverhead compares traced with untraced operations of one run: the
// relative difference of their median latencies. It compares hits only when
// both halves have some, since the halves' mix of hits and misses differs
// by chance and a miss costs many hits.
func traceOverhead(ops []op) float64 {
	var on, off, hitOn, hitOff []float64
	for _, o := range ops {
		if !o.ok || o.probe {
			continue
		}
		ns := float64(o.latency)
		if o.traced {
			on = append(on, ns)
			if o.hit {
				hitOn = append(hitOn, ns)
			}
		} else {
			off = append(off, ns)
			if o.hit {
				hitOff = append(hitOff, ns)
			}
		}
	}
	if len(hitOn) > 0 && len(hitOff) > 0 {
		on, off = hitOn, hitOff
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return median(on)/median(off) - 1
}
