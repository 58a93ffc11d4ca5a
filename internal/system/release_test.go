package system

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"idyll/internal/config"
	"idyll/internal/memdef"
	"idyll/internal/sim"
	"idyll/internal/stats"
	"idyll/internal/workload"
)

// releaseCell is one run of the recycling tests: a machine, a scheme and the
// trace it replays.
type releaseCell struct {
	name   string
	m      config.Machine
	scheme config.Scheme
	trace  *workload.Trace
}

// run builds a system for c from r, runs it with the translation checker on,
// and releases the system into r. A panic, which storage left dirty by an
// earlier run can cause, is reported as an error.
func (c releaseCell) run(r *sim.Recycler) (st *stats.Sim, err error) {
	defer func() {
		if r := recover(); r != nil {
			st, err = nil, fmt.Errorf("%s: panic: %v", c.name, r)
		}
	}()
	s, err := NewFrom(r, c.m, c.scheme)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	s.CheckTranslations = true
	st, err = s.Run(c.trace)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	return st, nil
}

// runCells runs every cell on one worker per recycler, each building its
// systems from its own recycler, and returns the stats in cell order.
func runCells(t *testing.T, cells []releaseCell, recyclers []*sim.Recycler) []*stats.Sim {
	t.Helper()
	out := make([]*stats.Sim, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for _, r := range recyclers {
		wg.Add(1)
		go func(r *sim.Recycler) {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = cells[i].run(r)
			}
		}(r)
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return out
}

// allSchemes lists every scheme of the evaluation.
func allSchemes() []config.Scheme {
	return []config.Scheme{
		config.Baseline(), config.OnlyLazy(), config.OnlyInPTE(),
		config.IDYLL(), config.IDYLLInMem(), config.ZeroLatency(),
		config.FirstTouchScheme(), config.OnTouchScheme(),
		config.ReplicationScheme(), config.TransFWScheme(), config.IDYLLTransFW(),
	}
}

// A system built from released storage must measure exactly what a system
// built from new storage measures. Machines of other shapes and schemes
// that use other structures (a 16-GPU machine, 2 MB pages, the VM-Table
// directory, Trans-FW's PRT, replicas) run and release first, so the 4-GPU,
// 4 KB cells that follow draw storage that held their state.
func TestRecycledSystemsMatchFresh(t *testing.T) {
	const accesses = 150
	m4 := smallMachine(4)
	apps := []workload.Params{smallApp()}
	if km, err := workload.App("KM"); err == nil {
		apps = append(apps, km)
	}
	var cells []releaseCell
	for _, app := range apps {
		trace := workload.Generate(app, 4, m4.CUsPerGPU, accesses, 7)
		for _, sc := range allSchemes() {
			cells = append(cells, releaseCell{name: app.Abbr + "/" + sc.Name, m: m4, scheme: sc, trace: trace})
		}
	}
	m16 := smallMachine(16)
	big := workload.Generate(smallApp(), 16, m16.CUsPerGPU, accesses, 8)
	m2M := smallMachine(4)
	m2M.PageSize = memdef.Page2M
	small := workload.Generate(smallApp(), 4, m4.CUsPerGPU, accesses, 9)
	others := []releaseCell{
		{name: "16 GPUs", m: m16, scheme: config.IDYLL(), trace: big},
		{name: "2 MB pages", m: m2M, scheme: config.IDYLL(), trace: small},
		{name: "InMem", m: m4, scheme: config.IDYLLInMem(), trace: small},
		{name: "Trans-FW", m: m4, scheme: config.IDYLLTransFW(), trace: small},
		{name: "Replication", m: m4, scheme: config.ReplicationScheme(), trace: small},
	}

	// The reference runs on new storage: a nil recycler never hands any
	// out.
	want := make([]*stats.Sim, len(cells))
	for i, c := range cells {
		st, err := c.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = st
	}

	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			recyclers := make([]*sim.Recycler, jobs)
			for w := range recyclers {
				recyclers[w] = new(sim.Recycler)
			}
			runCells(t, others, recyclers)
			got := runCells(t, cells, recyclers)
			for i, c := range cells {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s: recycled system measures %s, new system %s",
						c.name, got[i].Summary(), want[i].Summary())
				}
			}
		})
	}
}

// A released System refuses every run and checkpoint method with an error,
// and its component fields are nil. Releasing again does nothing.
func TestReleasedSystemRefusesRun(t *testing.T) {
	m := smallMachine(4)
	trace := workload.Generate(smallApp(), 4, m.CUsPerGPU, 60, 3)
	s := MustNew(m, config.IDYLL())
	s.Release()
	if s.Cluster != nil || s.Net != nil || s.Driver != nil || s.GPUs != nil {
		t.Fatal("released system keeps its components")
	}
	ctx := context.Background()
	if _, err := s.Run(trace); !errors.Is(err, errReleased) {
		t.Errorf("Run: %v, want %v", err, errReleased)
	}
	if err := s.RunWarmupCtx(ctx, trace, 30); !errors.Is(err, errReleased) {
		t.Errorf("RunWarmupCtx: %v, want %v", err, errReleased)
	}
	if _, err := s.RunRemainderCtx(ctx, trace, 30); !errors.Is(err, errReleased) {
		t.Errorf("RunRemainderCtx: %v, want %v", err, errReleased)
	}
	if _, err := s.Checkpoint(); !errors.Is(err, errReleased) {
		t.Errorf("Checkpoint: %v, want %v", err, errReleased)
	}
	if err := s.Resume(nil); !errors.Is(err, errReleased) {
		t.Errorf("Resume: %v, want %v", err, errReleased)
	}
	s.Release()

	// The stats of a finished run outlive the system that produced it.
	r := MustNew(m, config.IDYLL())
	st, err := r.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	accesses := st.Accesses
	r.Release()
	if st.Accesses != accesses || st.Accesses == 0 {
		t.Fatalf("stats changed by Release: %d accesses, had %d", st.Accesses, accesses)
	}
}

// A run cancelled with events still pending releases cleanly, and the
// systems built after it measure what new ones do.
func TestReleaseAfterCancelledRun(t *testing.T) {
	m := smallMachine(4)
	trace := workload.Generate(smallApp(), 4, m.CUsPerGPU, 150, 5)
	want, err := MustNew(m, config.Baseline()).Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var r sim.Recycler
	for i := 0; i < 3; i++ {
		s, err := NewFrom(&r, m, config.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		for j, g := range s.GPUs {
			g.Run(trace.Accesses[j])
		}
		if err := s.Cluster.RunCtx(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run: %v", err)
		}
		if s.Cluster.Pending() == 0 {
			t.Fatal("cancelled run left no events pending")
		}
		s.Release()
	}
	s, err := NewFrom(&r, m, config.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	got, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after cancelled runs: %s, want %s", got.Summary(), want.Summary())
	}
}
