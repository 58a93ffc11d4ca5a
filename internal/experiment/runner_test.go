package experiment

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"idyll/internal/config"
	"idyll/internal/sim"
	"idyll/internal/stats"
	"idyll/internal/workload"
)

func TestCellSeedDeterministicAndDistinct(t *testing.T) {
	if CellSeed(1, "fig11", "PR") != CellSeed(1, "fig11", "PR") {
		t.Fatal("CellSeed not deterministic")
	}
	seeds := map[uint64]string{}
	for _, fig := range []string{"fig11", "fig12", "fig13", "fig2", "table3"} {
		for _, app := range []string{"PR", "KM", "MT", "BS"} {
			s := CellSeed(20231028, fig, app)
			if prev, dup := seeds[s]; dup {
				t.Fatalf("seed collision: (%s,%s) and %s", fig, app, prev)
			}
			seeds[s] = fig + "/" + app
		}
	}
	// Concatenation ambiguity: ("fig1","1PR") must differ from ("fig11","PR").
	if CellSeed(1, "fig1", "1PR") == CellSeed(1, "fig11", "PR") {
		t.Fatal("CellSeed ambiguous across field boundaries")
	}
	// The suite seed must matter.
	if CellSeed(1, "fig11", "PR") == CellSeed(2, "fig11", "PR") {
		t.Fatal("CellSeed ignores suite seed")
	}
}

func TestOptionsJobsResolution(t *testing.T) {
	var o Options
	if got := o.jobs(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("jobs() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	o.Jobs = 3
	if got := o.jobs(); got != 3 {
		t.Fatalf("jobs() = %d, want 3", got)
	}
}

// The determinism gate: a multi-cell figure regenerated serially (-jobs=1)
// and on a wide pool (-jobs=8) must render byte-identical tables. This is
// the property the CI race job pins down: cells share no mutable state, so
// scheduling cannot leak into results.
func TestParallelMatchesSerial(t *testing.T) {
	o := quick() // PR, KM: fig11 is 12 cells
	e, err := Find("fig11")
	if err != nil {
		t.Fatal(err)
	}
	serial := o
	serial.Jobs = 1
	parallel := o
	parallel.Jobs = 8
	ts, err := e.Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := e.Run(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Render() != tp.Render() {
		t.Fatalf("parallel table differs from serial:\n--- jobs=1\n%s\n--- jobs=8\n%s",
			ts.Render(), tp.Render())
	}
	if ts.RenderCSV() != tp.RenderCSV() {
		t.Fatal("parallel CSV differs from serial")
	}
	js, _ := ts.RenderJSON()
	jp, _ := tp.RenderJSON()
	if js != jp {
		t.Fatal("parallel JSON differs from serial")
	}
}

func TestRunCellsErrorNamesFailedCell(t *testing.T) {
	o := quick()
	o.Jobs = 2
	m := config.Default()
	specs := []CellSpec{
		{Figure: "fig-test", App: "PR", Machine: m, Scheme: config.Baseline()},
		{Figure: "fig-test", App: "nope", Machine: m, Scheme: config.IDYLL()},
	}
	res, err := RunCells(o, specs)
	if err == nil {
		t.Fatal("unknown app accepted")
	}
	if res != nil {
		t.Fatal("results returned alongside error")
	}
	for _, want := range []string{"fig-test", "app=nope", "scheme=IDYLL"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}

// A failed cell must cancel the pool: with one worker, a failure in the
// first cell abandons the queued remainder (at most one already-dequeued
// cell may still complete).
func TestRunCellsFailureCancelsQueue(t *testing.T) {
	o := quick()
	o.Jobs = 1
	o.CUsPerGPU, o.AccessesPerCU = 1, 20
	completed := 0
	o.Progress = func(done, total int, cell string) { completed = done }
	m := config.Default()
	specs := []CellSpec{{Figure: "f", App: "nope", Machine: m, Scheme: config.Baseline()}}
	for i := 0; i < 10; i++ {
		specs = append(specs, CellSpec{Figure: "f", App: "PR", Machine: m, Scheme: config.Baseline()})
	}
	if _, err := RunCells(o, specs); err == nil {
		t.Fatal("failing cell accepted")
	}
	if completed > 1 {
		t.Fatalf("pool ran %d cells after the failure, want ≤1", completed)
	}
}

func TestRunCellsProgressSequence(t *testing.T) {
	o := quick()
	o.Jobs = 4
	o.CUsPerGPU, o.AccessesPerCU = 1, 20
	m := config.Default()
	var specs []CellSpec
	for i := 0; i < 6; i++ {
		specs = append(specs, CellSpec{Figure: "f", App: "KM", Machine: m, Scheme: config.Baseline()})
	}
	var dones []int
	o.Progress = func(done, total int, cell string) {
		if total != len(specs) {
			t.Errorf("total = %d, want %d", total, len(specs))
		}
		if cell == "" {
			t.Error("empty cell label")
		}
		dones = append(dones, done)
	}
	res, err := RunCells(o, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(specs) {
		t.Fatalf("%d results, want %d", len(res), len(specs))
	}
	for i, st := range res {
		if st == nil || st.Accesses == 0 {
			t.Fatalf("result %d empty", i)
		}
	}
	if len(dones) != len(specs) {
		t.Fatalf("%d progress calls, want %d", len(dones), len(specs))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress sequence %v not monotonic", dones)
		}
	}
}

// A cancelled context must abort RunCells with context.Canceled — never a
// partial result reported as success — and must not disturb results of runs
// that complete before the cancellation.
func TestRunCellsCancellation(t *testing.T) {
	m := config.Default()
	mkSpecs := func(n int) []CellSpec {
		var specs []CellSpec
		for i := 0; i < n; i++ {
			specs = append(specs, CellSpec{Figure: "f", App: "PR", Machine: m, Scheme: config.Baseline()})
		}
		return specs
	}

	// Pre-cancelled: nothing runs, the error is context.Canceled.
	o := quick()
	o.Jobs = 2
	o.CUsPerGPU, o.AccessesPerCU = 1, 20
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o = o.WithContext(ctx)
	ran := 0
	o.Progress = func(done, total int, cell string) { ran = done }
	res, err := RunCells(o, mkSpecs(8))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("results returned alongside cancellation")
	}
	if ran > 2 {
		t.Fatalf("%d cells completed after pre-cancellation, want ≤ jobs", ran)
	}

	// Cancel mid-flight (from a progress callback): RunCells stops early.
	o2 := quick()
	o2.Jobs = 1
	o2.CUsPerGPU, o2.AccessesPerCU = 1, 20
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	o2 = o2.WithContext(ctx2)
	completed := 0
	o2.Progress = func(done, total int, cell string) {
		completed = done
		if done == 2 {
			cancel2()
		}
	}
	if _, err := RunCells(o2, mkSpecs(10)); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight err = %v, want context.Canceled", err)
	}
	if completed > 3 {
		t.Fatalf("%d cells completed after mid-flight cancel, want ≤3", completed)
	}

	// An un-cancelled context leaves results identical to no context at all:
	// cancellation support must never perturb simulation output.
	plain := quick()
	plain.CUsPerGPU, plain.AccessesPerCU = 2, 50
	withCtx := plain.WithContext(context.Background())
	a, err := RunCells(plain, mkSpecs(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCells(withCtx, mkSpecs(1))
	if err != nil {
		t.Fatal(err)
	}
	if a[0].ExecCycles != b[0].ExecCycles || a[0].Accesses != b[0].Accesses {
		t.Fatal("context plumbing changed simulation results")
	}
}

// Identical (figure, app) cells share one trace regardless of scheme — the
// calibration invariant every figure's normalization depends on — while
// different figures draw independent traces.
func TestCellTracePairing(t *testing.T) {
	o := quick()
	o.CUsPerGPU, o.AccessesPerCU = 2, 50
	// trace returns the trace a cell replays, built the way the runner's
	// trace memo builds it.
	trace := func(fig string, s config.Scheme) *workload.Trace {
		p, err := planCell(cell(fig, "PR", s), o)
		if err != nil {
			t.Fatal(err)
		}
		return p.trace()
	}
	// Same cell, different scheme: same trace.
	if !reflect.DeepEqual(trace("figA", config.Baseline()), trace("figA", config.IDYLL())) {
		t.Fatal("schemes of one cell did not share the trace")
	}
	// Different figure: an independent trace.
	if reflect.DeepEqual(trace("figA", config.Baseline()), trace("figB", config.Baseline())) {
		t.Fatal("different figures drew the same trace")
	}
	// Baseline runs of the same cell are bit-repeatable, and replay that
	// trace: running it as an explicit trace gives the same stats.
	spec := cell("figA", "PR", config.Baseline())
	given := spec
	given.Trace = trace("figA", config.Baseline())
	var res [3]*stats.Sim
	for i, sp := range []CellSpec{spec, spec, given} {
		st, err := runCell(o, sp)
		if err != nil {
			t.Fatal(err)
		}
		res[i] = st
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Fatal("repeated cell not deterministic")
	}
	if !reflect.DeepEqual(res[0], res[2]) {
		t.Fatal("the cell did not replay its planned trace")
	}
}

// A pass leaves its worker's recycler on the free list, and the next pass
// takes it back even when collections ran in between: whether a pass reuses
// storage never depends on the garbage collector.
func TestRecyclerSurvivesCollections(t *testing.T) {
	o := quick()
	o.Jobs = 1
	o.CUsPerGPU, o.AccessesPerCU = 1, 20
	spec := cell("figA", "PR", config.IDYLL())
	if _, err := runCell(o, spec); err != nil {
		t.Fatal(err)
	}
	r := TakeRecycler()
	PutRecycler(r)
	runtime.GC()
	runtime.GC()
	if got := TakeRecycler(); got != r {
		t.Fatal("the free list lost the previous pass's recycler")
	}
	PutRecycler(r)
	if _, err := runCell(o, spec); err != nil {
		t.Fatal(err)
	}
	if got := TakeRecycler(); got != r {
		t.Fatal("a pass did not return the recycler it took")
	}
	PutRecycler(r)
}

// The free list keeps at most GOMAXPROCS recyclers, however many
// goroutines return them at once.
func TestRecyclerListIsBounded(t *testing.T) {
	var taken []*sim.Recycler
	for {
		recyclers.mu.Lock()
		n := len(recyclers.free)
		recyclers.mu.Unlock()
		if n == 0 {
			break
		}
		taken = append(taken, TakeRecycler())
	}
	limit := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for i := 0; i < limit+2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			PutRecycler(TakeRecycler())
			PutRecycler(new(sim.Recycler))
		}()
	}
	wg.Wait()
	recyclers.mu.Lock()
	n := len(recyclers.free)
	recyclers.free = recyclers.free[:0]
	recyclers.mu.Unlock()
	if n != limit {
		t.Fatalf("free list holds %d recyclers, want GOMAXPROCS = %d", n, limit)
	}
	for _, r := range taken {
		PutRecycler(r)
	}
}

// runCell runs one cell through RunCells.
func runCell(o Options, spec CellSpec) (*stats.Sim, error) {
	res, err := RunCells(o, []CellSpec{spec})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
