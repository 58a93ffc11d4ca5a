package pdes

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"idyll/internal/sim"
)

// TestBarrierMergeOrder pins the delivery order at a barrier: messages for
// one destination fire by (deliverAt, source domain, post order),
// regardless of the order the sends happened in.
func TestBarrierMergeOrder(t *testing.T) {
	const L = 10
	cl := NewCluster(3, L)
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	d0, d1, d2 := cl.Domain(0), cl.Domain(1), cl.Domain(2)
	// All sends target domain 0 with deliveries at L and L+1. Sources post
	// from their t=0 events; the higher-source, earlier-time message must
	// still beat the lower-source, later-time one.
	d2.ScheduleAt(0, func() {
		cl.Domain(2).Post(0, L, note("src2-seq1@L"))
		cl.Domain(2).Post(0, L, note("src2-seq2@L"))
	})
	d1.ScheduleAt(0, func() {
		cl.Domain(1).Post(0, L+1, note("src1@L+1"))
		cl.Domain(1).Post(0, L, note("src1@L"))
	})
	d0.ScheduleAt(0, func() {})
	cl.Run()
	want := []string{"src1@L", "src2-seq1@L", "src2-seq2@L", "src1@L+1"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("merge order = %v, want %v", order, want)
	}
}

// TestBarrierBoundaryDeliveries walks deliveries across a window edge: a
// message at exactly now+lookahead (the earliest legal slot, landing exactly
// on the next window's opening cycle) and ones just after must all fire at
// their exact times.
func TestBarrierBoundaryDeliveries(t *testing.T) {
	const L = 10
	cl := NewCluster(2, L)
	arrivals := map[string]sim.VTime{}
	d0, d1 := cl.Domain(0), cl.Domain(1)
	d0.ScheduleAt(5, func() {
		d0.Post(1, 5+L, func() { arrivals["exact"] = d1.Now() })
		d0.Post(1, 5+L+1, func() { arrivals["after"] = d1.Now() })
		d0.Post(1, 5+3*L, func() { arrivals["far"] = d1.Now() })
	})
	cl.Run()
	want := map[string]sim.VTime{"exact": 15, "after": 16, "far": 35}
	if !reflect.DeepEqual(arrivals, want) {
		t.Fatalf("arrivals = %v, want %v", arrivals, want)
	}
}

// TestPostInsideWindowPanics pins the conservatism guard: a cross-domain
// delivery inside the currently executing window breaks the premise that all
// of a window's inputs were known at its opening barrier.
func TestPostInsideWindowPanics(t *testing.T) {
	const L = 10
	cl := NewCluster(2, L)
	d0 := cl.Domain(0)
	var recovered any
	d0.ScheduleAt(5, func() {
		defer func() { recovered = recover() }()
		// Window is [5, 15); delivery at 14 lands inside it.
		d0.Post(1, 14, func() {})
	})
	cl.Run()
	if recovered == nil {
		t.Fatal("sub-lookahead post did not panic")
	}
	if !strings.Contains(fmt.Sprint(recovered), "conservative synchronization") {
		t.Fatalf("wrong panic: %v", recovered)
	}
}

// TestSameDomainPostBypassesBarrier: a Post to the sending domain is plain
// local scheduling and may land inside the window.
func TestSameDomainPostBypassesBarrier(t *testing.T) {
	cl := NewCluster(2, 10)
	d0 := cl.Domain(0)
	var at sim.VTime = -1
	d0.ScheduleAt(5, func() {
		d0.Post(0, 6, func() { at = d0.Now() })
	})
	cl.Domain(1).ScheduleAt(0, func() {})
	cl.Run()
	if at != 6 {
		t.Fatalf("same-domain post fired at %d, want 6", at)
	}
}

// TestZeroLookaheadRejected: conservative windows cannot express
// same-cycle cross-domain interaction.
func TestZeroLookaheadRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCluster(4, 0) did not panic")
		}
	}()
	NewCluster(4, 0)
}

// TestSingleDomainDegenerate: one domain needs no barriers, allows any
// lookahead >= 0 semantics via plain scheduling, and rejects cross-domain
// posts outright.
func TestSingleDomainDegenerate(t *testing.T) {
	cl := NewCluster(1, 1)
	d := cl.Domain(0)
	var order []string
	d.ScheduleAt(3, func() { order = append(order, "a") })
	d.Post(0, 1, func() { order = append(order, "b") })
	cl.Run()
	if !reflect.DeepEqual(order, []string{"b", "a"}) {
		t.Fatalf("order = %v", order)
	}
	if cl.Stats().Windows != 0 {
		t.Fatalf("single-domain run counted %d windows", cl.Stats().Windows)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-domain post in a single-domain cluster did not panic")
		}
	}()
	d.Post(1, 5, func() {})
}

// TestRunCtxCancellation: cancellation between windows stops the run with
// ctx.Err() without corrupting cluster state.
func TestRunCtxCancellation(t *testing.T) {
	cl := NewCluster(2, 1)
	ctx, cancel := context.WithCancel(context.Background())
	d0 := cl.Domain(0)
	// An endless ping-pong so the run can only end by cancellation.
	var ping func()
	n := 0
	ping = func() {
		n++
		if n == 100 {
			cancel()
		}
		d0.Schedule(1, ping)
	}
	d0.ScheduleAt(0, ping)
	cl.Domain(1).ScheduleAt(0, func() {})
	if err := cl.RunCtx(ctx); err != context.Canceled {
		t.Fatalf("RunCtx = %v, want context.Canceled", err)
	}
	if cl.Pending() == 0 {
		t.Fatal("cancelled run drained everything; ping-pong should still be pending")
	}
}

// TestPreRunPostsDelivered: messages staged before Run (model setup) are
// exchanged before the first window opens.
func TestPreRunPostsDelivered(t *testing.T) {
	cl := NewCluster(2, 10)
	d1 := cl.Domain(1)
	var at sim.VTime = -1
	cl.Domain(0).Post(1, 3, func() { at = d1.Now() })
	cl.Run()
	if at != 3 {
		t.Fatalf("pre-run post fired at %d, want 3", at)
	}
}

// TestPendingCountsOutboxes: Pending must see staged messages, or a
// drained-engines-plus-staged-work state would look finished.
func TestPendingCountsOutboxes(t *testing.T) {
	cl := NewCluster(2, 10)
	cl.Domain(0).Post(1, 3, func() {})
	if got := cl.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1 (staged message)", got)
	}
}

// TestNilPostRejected: a nil fn would vanish silently at injection.
func TestNilPostRejected(t *testing.T) {
	cl := NewCluster(2, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("nil post did not panic")
		}
	}()
	cl.Domain(0).Post(1, 3, nil)
}

// TestReentrantRunPanics: the cluster is single-use at a time.
func TestReentrantRunPanics(t *testing.T) {
	cl := NewCluster(2, 5)
	d0 := cl.Domain(0)
	var recovered any
	d0.ScheduleAt(0, func() {
		defer func() { recovered = recover() }()
		cl.Run()
	})
	cl.Domain(1).ScheduleAt(0, func() {})
	cl.Run()
	if recovered == nil {
		t.Fatal("re-entrant run did not panic")
	}
}

// TestEngineStatsSum: cluster-level engine stats are the sum over domains.
func TestEngineStatsSum(t *testing.T) {
	cl := NewCluster(3, 5)
	for i := 0; i < 3; i++ {
		d := cl.Domain(i)
		for j := 0; j < 4; j++ {
			d.ScheduleAt(sim.VTime(j), func() {})
		}
	}
	cl.Run()
	if got := cl.EngineStats().Fired; got != 12 {
		t.Fatalf("EngineStats.Fired = %d, want 12", got)
	}
	if cl.Stats().Messages != 0 {
		t.Fatalf("no cross-domain traffic, but Messages = %d", cl.Stats().Messages)
	}
}

// BenchmarkExchange measures the per-window barrier cost with light traffic:
// the gate for "PDES allocations per event" in CI runs on this path.
func BenchmarkExchange(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cl := NewCluster(4, 10)
		for d := 0; d < 4; d++ {
			dom := cl.Domain(d)
			next := DomainID((d + 1) % 4)
			var hop func()
			n := 0
			hop = func() {
				n++
				if n < 64 {
					dom.Post(next, dom.Now()+10, func() {})
					dom.Schedule(10, hop)
				}
			}
			dom.ScheduleAt(0, hop)
		}
		cl.Run()
	}
}

// sortedExchange is the barrier merge exchange used to perform: gather each
// destination's batch from every outbox, tag each message with its source
// and per-source post index, sort by (deliverAt, source, index) and inject
// in that order. It is the oracle for TestExchangeMatchesSortedMerge.
func sortedExchange(c *Cluster) {
	type tagged struct {
		m        message
		src, idx int
	}
	for dstID, dst := range c.domains {
		var batch []tagged
		for srcID, src := range c.domains {
			for i, m := range src.out[dstID] {
				batch = append(batch, tagged{m, srcID, i})
			}
			src.out[dstID] = src.out[dstID][:0]
		}
		sort.Slice(batch, func(i, j int) bool {
			a, b := batch[i], batch[j]
			if a.m.at != b.m.at {
				return a.m.at < b.m.at
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.idx < b.idx
		})
		for _, t := range batch {
			dst.eng.ScheduleAt(t.m.at, t.m.fn)
		}
	}
}

// runSorted is RunCtx's windowed loop with sortedExchange at every barrier.
func runSorted(c *Cluster) {
	c.running = true
	defer func() { c.running = false }()
	sortedExchange(c)
	for {
		next, ok := c.nextEventTime()
		if !ok {
			return
		}
		c.windowEnd = next + c.lookahead
		for _, d := range c.domains {
			d.eng.RunUntil(c.windowEnd - 1)
		}
		sortedExchange(c)
	}
}

// orderScript builds one random multi-domain workload on cl and returns the
// per-domain firing logs it fills. Every event is named by a label, and all
// of its choices derive from that label alone, so two clusters that fire the
// same events in the same order produce the same logs however they merge.
// Deliveries land on a coarse grid of cycles so that several sources hit
// the same cycle of one destination, and a fifth of them go beyond the
// engine's ring span into its far tier.
func orderScript(cl *Cluster, seed uint64) [][]uint64 {
	n := cl.NumDomains()
	la := cl.Lookahead()
	logs := make([][]uint64, n)
	mix := func(x uint64) uint64 {
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	deliverAt := func(now sim.VTime, r uint64) sim.VTime {
		at := now + la
		if r%5 == 0 {
			at += 4096 + sim.VTime(r>>8%512) // far tier
		}
		return (at + 7) &^ 7 // a coarse grid makes same-cycle collisions common
	}
	var event func(dom int, label uint64, depth int) func()
	event = func(dom int, label uint64, depth int) func() {
		return func() {
			logs[dom] = append(logs[dom], label)
			if depth == 0 {
				return
			}
			d := cl.Domain(dom)
			r := mix(label)
			for k := uint64(0); k < r%4; k++ {
				cr := mix(r + k)
				child := mix(label ^ (k+1)<<56)
				if cr%3 == 0 {
					d.Schedule(sim.VTime(cr>>8%16), event(dom, child, depth-1))
					continue
				}
				dst := int(cr >> 16 % uint64(n))
				d.Post(DomainID(dst), deliverAt(d.Now(), cr>>24), event(dst, child, depth-1))
			}
		}
	}
	for dom := 0; dom < n; dom++ {
		d := cl.Domain(dom)
		for i := uint64(0); i < 6; i++ {
			label := mix(seed<<16 | uint64(dom)<<8 | i)
			if label%2 == 0 {
				d.ScheduleAt(sim.VTime(label>>8%32), event(dom, label, 5))
				continue
			}
			// A post made during setup, before any window opened.
			dst := int(label >> 16 % uint64(n))
			d.Post(DomainID(dst), deliverAt(0, label>>24), event(dst, label, 5))
		}
	}
	return logs
}

// TestExchangeMatchesSortedMerge replays random multi-domain scripts through
// Run and through the sorted-merge oracle and requires every destination to
// fire the same events in the same order: injecting each source's outbox in
// domain order, in post order, delivers exactly what sorting each batch by
// (deliverAt, source, sequence) did.
func TestExchangeMatchesSortedMerge(t *testing.T) {
	fired := 0
	for seed := uint64(1); seed <= 60; seed++ {
		n := 2 + int(seed%4)
		la := sim.VTime(1 + seed%13)
		got := NewCluster(n, la)
		gotLogs := orderScript(got, seed)
		got.Run()
		want := NewCluster(n, la)
		wantLogs := orderScript(want, seed)
		runSorted(want)
		if !reflect.DeepEqual(gotLogs, wantLogs) {
			for d := range wantLogs {
				if !reflect.DeepEqual(gotLogs[d], wantLogs[d]) {
					t.Fatalf("seed %d: domain %d fired %d events differently from the sorted merge (%d events)",
						seed, d, len(gotLogs[d]), len(wantLogs[d]))
				}
			}
		}
		if got.Stats().Messages == 0 {
			t.Fatalf("seed %d: script exchanged no messages", seed)
		}
		for _, l := range gotLogs {
			fired += len(l)
		}
	}
	if fired < 10000 {
		t.Fatalf("scripts fired only %d events; too few to exercise the merge", fired)
	}
}
