// The concurrent suite runner. Every figure of the evaluation is a
// (scheme × application) matrix of independent simulation cells; a cell is a
// pure function of its spec — machine, scheme, workload, scale, seed — with
// no shared mutable state (each cell builds its own engine, system and
// stats). The runner fans cells out across a bounded worker pool and merges
// results back in submission order, so parallel regeneration renders
// byte-identical tables to a serial run.
//
// Every figure is a ratio against a baseline run of the same trace, so the
// cells of one pass replay few distinct traces: fig11's 54 cells replay 9.
// A pass therefore builds each distinct trace, and its page placement, once
// and hands both to every cell that replays it. Neither is written after it
// is built, so concurrent cells read them without locks; each is released
// once the last cell that uses it has started.
package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"idyll/internal/config"
	"idyll/internal/memdef"
	"idyll/internal/sim"
	"idyll/internal/stats"
	"idyll/internal/system"
	"idyll/internal/workload"
)

// CellSpec identifies one simulation run of an experiment's matrix.
type CellSpec struct {
	// Figure is the experiment ID ("fig11"); it salts the cell seed and
	// labels progress and error reports.
	Figure string
	// App is the application abbreviation. It salts the cell seed, so it
	// must be set even when Params or Trace supply the workload.
	App     string
	Machine config.Machine
	Scheme  config.Scheme
	// Params, when non-nil, supplies explicit generator parameters instead
	// of resolving App through the Table 3 registry.
	Params *workload.Params
	// Trace, when non-nil, replays a pre-generated trace (no generation, no
	// seed derivation). The machine's GPU/CU geometry is taken from it.
	Trace *workload.Trace
	// Opts, when non-nil, overrides the suite options for this cell
	// (Figure 20 varies the counter threshold per cell this way).
	Opts *Options
}

// CellSeed derives the workload seed of one (figure, application) cell from
// the suite seed, so a cell's trace depends only on its own identity — never
// on how many cells ran before it or on which worker it lands. The scheme is
// deliberately not mixed in: every figure is a ratio against a baseline run
// of the byte-identical trace (see EXPERIMENTS.md "Calibration"), so all
// schemes of a cell pair must draw the same trace.
func CellSeed(suiteSeed uint64, figureID, appAbbr string) uint64 {
	// FNV-1a over the cell identity, then a splitmix64-style finalizer so
	// neighbouring IDs ("fig12"/"fig13") land in well-separated streams.
	h := suiteSeed ^ 0xcbf29ce484222325
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 0x100000001b3
		}
		h ^= 0xff // separator: ("ab","c") and ("a","bc") must differ
		h *= 0x100000001b3
	}
	mix(figureID)
	mix(appAbbr)
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// jobs resolves the worker-pool width: Options.Jobs, or every core.
func (o Options) jobs() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// RunCells executes the cells on a bounded worker pool of o.jobs() workers
// and returns their stats in spec order. The first failing cell cancels the
// pool — queued cells are abandoned, in-flight ones finish — and the joined
// error names every failed (figure, app, scheme). Each completed cell
// reports through o.Progress (serialized, never concurrent).
//
// When o carries a context (see Options.WithContext), cancellation stops
// dispatching queued cells and interrupts in-flight cells at their next
// event-loop batch boundary; RunCells then returns the context's error.
func RunCells(o Options, specs []CellSpec) ([]*stats.Sim, error) {
	ctx := o.Context()
	n := len(specs)
	results := make([]*stats.Sim, n)
	errs := make([]error, n)
	workers := o.jobs()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	plans := make([]cellPlan, n)
	planErrs := make([]error, n)
	memo := traceMemo{entries: map[traceKey]*sharedTrace{}}
	for i, spec := range specs {
		plans[i], planErrs[i] = planCell(spec, o)
		if planErrs[i] == nil {
			memo.use(plans[i].key)
		}
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // serializes the done counter and Progress calls
		done     int
		stop     = make(chan struct{})
		stopOnce sync.Once
	)
	work := make(chan int)
	go func() {
		defer close(work)
		for i := range specs {
			select {
			case work <- i:
			case <-stop:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := TakeRecycler()
			defer PutRecycler(r)
			for i := range work {
				spec := specs[i]
				err := planErrs[i]
				var st *stats.Sim
				if err == nil {
					st, err = runSystem(plans[i].o, plans[i].m, spec.Scheme, memo.take(plans[i]), r)
				}
				if err != nil {
					errs[i] = cellError(spec, err)
					stopOnce.Do(func() { close(stop) })
					continue
				}
				results[i] = st
				mu.Lock()
				done++
				if o.Progress != nil {
					o.Progress(done, n, fmt.Sprintf("%s %s/%s",
						spec.Figure, spec.App, spec.Scheme.Name))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	// Cancellation can win the dispatch race before any cell starts (or
	// after some finished cleanly); never report a partial pass as success.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// cellError names the cell a failure belongs to.
func cellError(spec CellSpec, err error) error {
	return fmt.Errorf("%s: cell (app=%s, scheme=%s): %w", spec.Figure, spec.App, spec.Scheme.Name, err)
}

// recyclers is the free list of the sim.Recyclers that RunCells workers and
// the facade's Simulate are done with. A worker takes one for its lifetime
// and builds every cell's machine from the storage the previous cell
// released into it, so a pass allocates about one machine per worker, and
// the next pass starts from what this one left. Unlike a sync.Pool, the list
// survives garbage collections, so whether a pass finds a recycler never
// depends on when the collector ran; it keeps at most GOMAXPROCS of them
// and drops the rest to the collector.
var recyclers struct {
	mu   sync.Mutex
	free []*sim.Recycler
}

// TakeRecycler takes a recycler from the free list, or makes one. Give it
// back with PutRecycler once the last system built from it is released.
func TakeRecycler() *sim.Recycler {
	recyclers.mu.Lock()
	defer recyclers.mu.Unlock()
	if n := len(recyclers.free); n > 0 {
		r := recyclers.free[n-1]
		recyclers.free[n-1] = nil
		recyclers.free = recyclers.free[:n-1]
		return r
	}
	return new(sim.Recycler)
}

// PutRecycler returns r to the free list, or drops it when the list already
// holds GOMAXPROCS recyclers.
func PutRecycler(r *sim.Recycler) {
	recyclers.mu.Lock()
	defer recyclers.mu.Unlock()
	if len(recyclers.free) < runtime.GOMAXPROCS(0) {
		recyclers.free = append(recyclers.free, r)
	}
}

// cellPlan is one cell resolved to what it simulates: its options, its
// machine, and its trace — the trace given in its spec, or the generator
// parameters it is built from (the seed is o.Seed).
type cellPlan struct {
	o      Options
	m      config.Machine
	params workload.Params
	key    traceKey
}

// trace returns the trace the cell replays: the one its spec gives, or a new
// one generated from its parameters.
func (p cellPlan) trace() *workload.Trace {
	if p.key.given != nil {
		return p.key.given
	}
	return workload.Generate(p.params, p.m.NumGPUs, p.m.CUsPerGPU, p.o.AccessesPerCU, p.o.Seed)
}

// traceKey names a cell's trace and the page size it is placed at. A
// generated trace is named by its canonical parameters, geometry and seed,
// a given one by its pointer.
type traceKey struct {
	params                    string
	gpus, cusPerGPU, accesses int
	seed                      uint64
	given                     *workload.Trace
	pageSize                  memdef.PageSize
}

// planCell resolves a cell's options, machine and trace.
func planCell(spec CellSpec, o Options) (cellPlan, error) {
	co := o
	if spec.Opts != nil {
		co = *spec.Opts
		if co.ctx == nil { // per-cell options inherit the pass's context
			co.ctx = o.ctx
		}
		if co.CheckpointStore == nil { // execution knob, inherited like the context
			co.CheckpointStore = o.CheckpointStore
		}
	}
	m := spec.Machine
	if co.CounterThreshold > 0 {
		m.AccessCounterThreshold = co.CounterThreshold
	}
	if spec.Trace != nil {
		m.NumGPUs = spec.Trace.NumGPUs
		m.CUsPerGPU = len(spec.Trace.Accesses[0])
		return cellPlan{o: co, m: m, key: traceKey{given: spec.Trace, pageSize: m.PageSize}}, nil
	}
	co.Seed = CellSeed(co.Seed, spec.Figure, spec.App)
	params := spec.Params
	if params == nil {
		app, err := workload.App(spec.App)
		if err != nil {
			return cellPlan{}, err
		}
		params = &app
	}
	if co.CUsPerGPU > 0 {
		m.CUsPerGPU = co.CUsPerGPU
	}
	return cellPlan{o: co, m: m, params: *params, key: traceKey{
		// %#v, as in warmupKey: every field, and no String() method.
		params:    fmt.Sprintf("%#v", *params),
		gpus:      m.NumGPUs,
		cusPerGPU: m.CUsPerGPU,
		accesses:  co.AccessesPerCU,
		seed:      co.Seed,
		pageSize:  m.PageSize,
	}}, nil
}

// traceMemo holds one RunCells pass's shared traces.
type traceMemo struct {
	mu      sync.Mutex
	entries map[traceKey]*sharedTrace
}

// sharedTrace is one trace of a pass and its placement, built by the first
// of its cells to start. users counts its cells yet to start. enc is the
// trace's Save encoding, made by the first cell that needs a warmup key
// (see warmupKey).
type sharedTrace struct {
	once    sync.Once
	users   int
	trace   *workload.Trace
	place   *system.Placement
	encOnce sync.Once
	enc     []byte
}

// use registers one more cell on key's trace. It runs before any cell
// starts.
func (m *traceMemo) use(key traceKey) {
	e := m.entries[key]
	if e == nil {
		e = &sharedTrace{}
		m.entries[key] = e
	}
	e.users++
}

// take returns p's shared trace, building it on first use. When p is the
// last of its cells to start, the entry leaves the memo: the cells still
// running hold it until they finish, and nothing keeps it past them.
func (m *traceMemo) take(p cellPlan) *sharedTrace {
	m.mu.Lock()
	e := m.entries[p.key]
	if e.users--; e.users == 0 {
		delete(m.entries, p.key)
	}
	m.mu.Unlock()
	e.once.Do(func() {
		e.trace = p.trace()
		e.place = system.Place(e.trace, p.m.PageSize)
	})
	return e
}

// cells accumulates one figure's specs so the whole matrix runs in a single
// pool pass; add methods return the index of the cell's result.
type cells struct {
	fig   string
	o     Options
	specs []CellSpec
}

func newCells(fig string, o Options) *cells { return &cells{fig: fig, o: o} }

// add schedules one (machine, scheme, app) run.
func (c *cells) add(m config.Machine, s config.Scheme, abbr string) int {
	c.specs = append(c.specs, CellSpec{
		Figure: c.fig, App: abbr, Machine: m, Scheme: s,
	})
	return len(c.specs) - 1
}

// addOpts is add with per-cell options (threshold studies).
func (c *cells) addOpts(m config.Machine, s config.Scheme, abbr string, o Options) int {
	o2 := o
	c.specs = append(c.specs, CellSpec{
		Figure: c.fig, App: abbr, Machine: m, Scheme: s, Opts: &o2,
	})
	return len(c.specs) - 1
}

// addParams schedules a run with explicit workload parameters.
func (c *cells) addParams(m config.Machine, s config.Scheme, p workload.Params) int {
	p2 := p
	c.specs = append(c.specs, CellSpec{
		Figure: c.fig, App: p.Abbr, Machine: m, Scheme: s, Params: &p2,
	})
	return len(c.specs) - 1
}

// addParamsOpts is addParams with per-cell options.
func (c *cells) addParamsOpts(m config.Machine, s config.Scheme, p workload.Params, o Options) int {
	p2, o2 := p, o
	c.specs = append(c.specs, CellSpec{
		Figure: c.fig, App: p.Abbr, Machine: m, Scheme: s, Params: &p2, Opts: &o2,
	})
	return len(c.specs) - 1
}

// runPass runs one figure's accumulated specs. It is a variable so that
// tests can compare a figure's shared-trace pass with its cells run one by
// one.
var runPass = RunCells

// run executes the accumulated specs on the pool.
func (c *cells) run() ([]*stats.Sim, error) { return runPass(c.o, c.specs) }

// schemeMatrix runs baseline plus each scheme for every app in one pool pass
// and returns one speedup row per scheme — the (scheme × app) shape most
// figures share.
func schemeMatrix(fig string, o Options, m config.Machine, apps []string, schemes []config.Scheme) ([][]float64, error) {
	cs := newCells(fig, o)
	baseIdx := make([]int, len(apps))
	idx := make([][]int, len(schemes))
	for i := range idx {
		idx[i] = make([]int, len(apps))
	}
	for j, abbr := range apps {
		baseIdx[j] = cs.add(m, config.Baseline(), abbr)
		for i, s := range schemes {
			idx[i][j] = cs.add(m, s, abbr)
		}
	}
	res, err := cs.run()
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, len(schemes))
	for i := range schemes {
		rows[i] = make([]float64, len(apps))
		for j := range apps {
			rows[i][j] = res[idx[i][j]].Speedup(res[baseIdx[j]])
		}
	}
	return rows, nil
}

// pairRuns runs (baseline, scheme) for every app in one pool pass and
// returns both result rows in app order.
func pairRuns(fig string, o Options, m config.Machine, s config.Scheme, apps []string) (base, opt []*stats.Sim, err error) {
	cs := newCells(fig, o)
	for _, abbr := range apps {
		cs.add(m, config.Baseline(), abbr)
		cs.add(m, s, abbr)
	}
	res, err := cs.run()
	if err != nil {
		return nil, nil, err
	}
	base = make([]*stats.Sim, len(apps))
	opt = make([]*stats.Sim, len(apps))
	for j := range apps {
		base[j], opt[j] = res[2*j], res[2*j+1]
	}
	return base, opt, nil
}

// baselineRuns runs the baseline for every app in one pool pass.
func baselineRuns(fig string, o Options, m config.Machine, apps []string) ([]*stats.Sim, error) {
	cs := newCells(fig, o)
	for _, abbr := range apps {
		cs.add(m, config.Baseline(), abbr)
	}
	return cs.run()
}
