package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"idyll"
	"idyll/internal/cache"
	"idyll/internal/config"
	"idyll/internal/core"
	"idyll/internal/experiment"
	"idyll/internal/integrity"
	"idyll/internal/memdef"
	"idyll/internal/pagetable"
	"idyll/internal/service"
	"idyll/internal/tlb"
)

// layerUnits lists every per-layer metric with its unit. README.md maps
// each to the end-to-end metric it should move.
var layerUnits = map[string]string{
	"experiment.cell_ms_p50":           "ms",
	"experiment.cell_ms_p90":           "ms",
	"experiment.pool_efficiency":       "fraction",
	"workload.generate_ms":             "ms",
	"system.new_ms":                    "ms",
	"sim.events":                       "count",
	"sim.host_ns_per_event":            "ns",
	"sim.ring_frac":                    "fraction",
	"sim.cancelled":                    "count",
	"tlb.l1_hit_rate":                  "fraction",
	"tlb.l2_hit_rate":                  "fraction",
	"tlb.l2_misses":                    "count",
	"tlb.mshr_merges":                  "count",
	"tlb.replay_lookup_ns":             "ns",
	"walker.demand_walks":              "count",
	"walker.inval_walks":               "count",
	"walker.update_walks":              "count",
	"walker.level_visits":              "count",
	"walker.pwc_hit_rate":              "fraction",
	"walker.queue_rejects":             "count",
	"walker.inval_busy_cy":             "cycles",
	"walker.necessary_inval_frac":      "fraction",
	"pagetable.replay_walk_ns":         "ns",
	"core.irmb_inserts":                "count",
	"core.irmb_merge_frac":             "fraction",
	"core.irmb_lookup_hit_frac":        "fraction",
	"core.irmb_drains":                 "count",
	"core.irmb_writebacks":             "count",
	"core.directory_filtered_frac":     "fraction",
	"core.replay_irmb_ns":              "ns",
	"driver.far_faults":                "count",
	"driver.migration_requests":        "count",
	"driver.migrations":                "count",
	"driver.migration_wait_mean_cy":    "cycles",
	"driver.inval_received":            "count",
	"interconnect.nvlink_bytes":        "bytes",
	"interconnect.pcie_bytes":          "bytes",
	"datapath.l1d_hit_rate":            "fraction",
	"datapath.l2d_hit_rate":            "fraction",
	"datapath.remote_frac":             "fraction",
	"cache.replay_lookup_ns":           "ns",
	"pdes.windows":                     "count",
	"pdes.messages":                    "count",
	"pdes.events_per_window":           "count",
	"pdes.par_speedup":                 "x",
	"checkpoint.bytes":                 "bytes",
	"checkpoint.save_ms":               "ms",
	"checkpoint.resume_ms":             "ms",
	"store.ckpt_hits":                  "count",
	"store.ckpt_misses":                "count",
	"store.ckpt_disk_hits":             "count",
	"service.cache_hits":               "count",
	"service.cache_misses":             "count",
	"service.cache_disk_hits":          "count",
	"service.jobs_deduped":             "count",
	"service.jobs_shed":                "count",
	"service.spec_hash_us":             "us",
	"service.cache_get_us":             "us",
	"service.disk_get_us":              "us",
	"service.cache_put_us":             "us",
	"integrity.wrap_us_per_mb":         "us/MB",
	"integrity.unwrap_us_per_mb":       "us/MB",
	"fleet.jobs_dispatched":            "count",
	"fleet.replications":               "count",
	"fleet.peer_fills":                 "count",
	"fleet.reroutes":                   "count",
	"fleet.coord_hit_ms_p50":           "ms",
	"fleet.relay_hit_ms_p50":           "ms",
	"fleet.peer_fill_ms_p50":           "ms",
	"fleet.source_coord_frac":          "fraction",
	"fleet.source_worker_cache_frac":   "fraction",
	"fleet.source_peer_frac":           "fraction",
	"fleet.source_computed_frac":       "fraction",
	"loadgen.requests":                 "count",
	"loadgen.lag_ms_p99":               "ms",
	"model.fig11_idyll_speedup":        "x",
	"model.fig11_zero_latency_speedup": "x",
	"model.scaleout_idyll_speedup":     "x",
	"model.exec_cycles_sum":            "cycles",
	"bench.trace_overhead_frac":        "fraction",
	"bench.hit_ms_p99":                 "ms",
	"bench.miss_ms_p50":                "ms",
	"bench.miss_ms_p90":                "ms",
	"bench.hit_samples":                "count",
	"bench.miss_samples":               "count",
}

// simProbe is what one simulator workload hands the layer probes: the cell
// specs whose per-cell stats give the simulator counts, the simulated
// accesses the untraced metric credits those cells with, the
// Baseline/IDYLL pair the PDES and replay probes run on, and
// workload-specific model values.
type simProbe struct {
	cells    []experiment.CellSpec
	opts     experiment.Options
	credited float64
	pair     simPair
	model    map[string]float64
}

// simPair is one app under the Baseline and IDYLL schemes.
type simPair struct {
	machine idyll.Machine
	app     idyll.Workload
	schemes []idyll.Scheme
	rc      idyll.RunConfig
}

func fig11Layers(ctx context.Context, e *env, seed uint64, first sutReply, res *result) (map[string]float64, error) {
	m := idyll.DefaultMachine()
	m.AccessCounterThreshold = scaleThreshold
	o := fig11Options(seed, e.nproc)
	var cells []experiment.CellSpec
	for _, a := range appAbbrs() {
		for _, name := range zipfSchemes {
			s, err := config.SchemeByName(name)
			if err != nil {
				return nil, err
			}
			cells = append(cells, experiment.CellSpec{Figure: "fig11", App: a, Machine: idyll.DefaultMachine(), Scheme: s})
		}
	}
	app, err := idyll.App("PR")
	if err != nil {
		return nil, err
	}
	return runSimProbe(ctx, e, res, simProbe{
		cells:    cells,
		opts:     o,
		credited: first.Accesses,
		pair: simPair{machine: m, app: app, schemes: []idyll.Scheme{idyll.Baseline(), idyll.IDYLL()},
			rc: idyll.RunConfig{CUsPerGPU: fig11CUs, AccessesPerCU: fig11Accesses,
				Seed: experiment.CellSeed(seed, "fig11", "PR")}},
		model: map[string]float64{
			"model.fig11_idyll_speedup":        first.Values["idyll_ave"],
			"model.fig11_zero_latency_speedup": first.Values["zero_ave"],
		},
	})
}

func scaleoutLayers(ctx context.Context, e *env, seed uint64, first sutReply, res *result) (map[string]float64, error) {
	m, app, schemes, err := scaleoutPair()
	if err != nil {
		return nil, err
	}
	rc := scaleoutRunConfig(seed)
	trace := idyll.GenerateTrace(app, m.NumGPUs, rc.CUsPerGPU, rc.AccessesPerCU, rc.Seed)
	o := experiment.Options{CounterThreshold: scaleThreshold, Jobs: e.nproc}
	var cells []experiment.CellSpec
	for _, s := range schemes {
		cells = append(cells, experiment.CellSpec{Figure: "scaleout", App: app.Abbr, Machine: m, Scheme: s, Trace: trace})
	}
	return runSimProbe(ctx, e, res, simProbe{
		cells:    cells,
		opts:     o,
		credited: first.Accesses,
		pair:     simPair{machine: m, app: app, schemes: schemes, rc: rc},
		model:    map[string]float64{"model.scaleout_idyll_speedup": first.Values["speedup"]},
	})
}

func appAbbrs() []string {
	var out []string
	for _, a := range idyll.Apps() {
		out = append(out, a.Abbr)
	}
	return out
}

// runSimProbe measures the simulator layers on one workload's inputs. A
// failed check (PDES stats differing from serial, or the cells' simulated
// accesses differing from what the untraced metric credits) counts as a
// failed operation.
func runSimProbe(ctx context.Context, e *env, res *result, p simProbe) (map[string]float64, error) {
	out := map[string]float64{}
	for k, v := range p.model {
		out[k] = v
	}
	failed := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "perfbench: %s probe: %v\n", what, err)
		res.ops = append(res.ops, op{ok: false, probe: true})
	}
	var accesses float64
	if err := e.spans.timed("probe experiment", 0, 0, func() (err error) {
		accesses, err = cellLayers(ctx, e, p, out)
		return err
	}); err != nil {
		return nil, fmt.Errorf("experiment probe: %w", err)
	}
	if accesses != p.credited {
		failed("experiment", fmt.Errorf("the cells simulated %.0f accesses, the run credits %.0f", accesses, p.credited))
	}
	var pdesErr error
	e.spans.timed("probe pdes", 0, 0, func() error { pdesErr = pdesLayers(e, p.pair, out); return nil })
	if pdesErr != nil {
		failed("pdes", pdesErr)
	}
	if err := e.spans.timed("probe replay", 0, 0, func() error { return replayLayers(p.pair, out) }); err != nil {
		return nil, fmt.Errorf("replay probe: %w", err)
	}
	loadgenLayers(res.ops, out)
	return out, nil
}

// cellLayers runs the cells once on the experiment runner's pool (Jobs =
// nproc) and once each on their own, timed, folds their stats, and returns
// the accesses they simulated.
func cellLayers(ctx context.Context, e *env, p simProbe, out map[string]float64) (float64, error) {
	o := p.opts.WithContext(ctx)
	o.Jobs = e.nproc
	t0 := time.Now()
	stats, err := experiment.RunCells(o, p.cells)
	if err != nil {
		return 0, err
	}
	wall := time.Since(t0)
	e.spans.record("experiment.RunCells", 0, 0, t0, t0.Add(wall))

	var cellMS []float64
	var busy time.Duration
	for i, c := range p.cells {
		so := o
		so.Jobs = 1
		start := time.Now()
		st, err := experiment.RunCells(so, []experiment.CellSpec{c})
		if err != nil {
			return 0, err
		}
		d := time.Since(start)
		e.spans.record("experiment.RunCells "+c.App+"/"+c.Scheme.Name, 0, 0, start, start.Add(d))
		if !reflect.DeepEqual(st[0], stats[i]) {
			return 0, fmt.Errorf("cell %s/%s differs between pool and single runs", c.App, c.Scheme.Name)
		}
		cellMS = append(cellMS, float64(d)/float64(time.Millisecond))
		busy += d
	}
	out["experiment.cell_ms_p50"] = percentile(cellMS, 50)
	out["experiment.cell_ms_p90"] = percentile(cellMS, 90)
	out["experiment.pool_efficiency"] = frac(float64(busy), float64(wall)*float64(e.nproc))

	var t idyll.Stats
	var cycles, accesses float64
	for _, s := range stats {
		addCounters(&t, s)
		cycles += float64(s.ExecCycles)
		accesses += float64(s.Accesses)
	}
	out["model.exec_cycles_sum"] = cycles
	out["sim.events"] = float64(t.EngineEvents)
	out["sim.host_ns_per_event"] = frac(float64(busy), float64(t.EngineEvents))
	out["sim.ring_frac"] = frac(float64(t.EngineRingScheduled), float64(t.EngineRingScheduled+t.EngineFarScheduled))
	out["sim.cancelled"] = float64(t.EngineCancelled)
	out["tlb.l1_hit_rate"] = frac(float64(t.L1TLBHits), float64(t.L1TLBLookups))
	out["tlb.l2_hit_rate"] = frac(float64(t.L2TLBHits), float64(t.L2TLBLookups))
	out["tlb.l2_misses"] = float64(t.L2TLBLookups - t.L2TLBHits)
	out["tlb.mshr_merges"] = float64(t.MSHRMerges)
	out["walker.demand_walks"] = float64(t.WalkerDemand)
	out["walker.inval_walks"] = float64(t.WalkerInval)
	out["walker.update_walks"] = float64(t.WalkerUpdate)
	out["walker.level_visits"] = float64(t.WalkerLevelVisits)
	out["walker.pwc_hit_rate"] = frac(float64(t.PWCHits), float64(t.PWCLookups))
	out["walker.queue_rejects"] = float64(t.WalkQueueRejects)
	out["walker.inval_busy_cy"] = float64(t.InvalBusy)
	out["walker.necessary_inval_frac"] = frac(float64(t.InvalNecessary), float64(t.InvalNecessary+t.InvalUnnecessary))
	out["core.irmb_inserts"] = float64(t.IRMBInserts)
	out["core.irmb_merge_frac"] = frac(float64(t.IRMBMergeHits), float64(t.IRMBInserts))
	out["core.irmb_lookup_hit_frac"] = frac(float64(t.IRMBLookupHits), float64(t.IRMBLookups))
	out["core.irmb_drains"] = float64(t.IRMBDrains)
	out["core.irmb_writebacks"] = float64(t.IRMBWritebacks)
	out["core.directory_filtered_frac"] = frac(float64(t.DirectoryFiltered), float64(t.DirectoryFiltered+t.DirectoryTargeted))
	out["driver.far_faults"] = float64(t.FarFaults)
	out["driver.migration_requests"] = float64(t.MigrationRequests)
	out["driver.migrations"] = float64(t.Migrations)
	out["driver.migration_wait_mean_cy"] = t.MigrationWait.Mean()
	out["driver.inval_received"] = float64(t.InvalReceived)
	out["interconnect.nvlink_bytes"] = float64(t.NVLinkBytes)
	out["interconnect.pcie_bytes"] = float64(t.PCIeBytes)
	out["datapath.l1d_hit_rate"] = frac(float64(t.L1DHits), float64(t.L1DLookups))
	out["datapath.l2d_hit_rate"] = frac(float64(t.L2DHits), float64(t.L2DLookups))
	out["datapath.remote_frac"] = frac(float64(t.RemoteAccesses), float64(t.LocalAccesses+t.RemoteAccesses))

	// Trace generation and system assembly, on the pair's configuration.
	var gen, build []float64
	m := p.pair.machine
	m.CUsPerGPU = p.pair.rc.CUsPerGPU
	for i := 0; i < 5; i++ {
		start := time.Now()
		idyll.GenerateTrace(p.pair.app, m.NumGPUs, m.CUsPerGPU, p.pair.rc.AccessesPerCU, p.pair.rc.Seed+uint64(i))
		gen = append(gen, float64(time.Since(start))/float64(time.Millisecond))
		for _, s := range p.pair.schemes {
			start = time.Now()
			if _, err := idyll.NewSystem(m, s); err != nil {
				return 0, err
			}
			build = append(build, float64(time.Since(start))/float64(time.Millisecond))
		}
	}
	out["workload.generate_ms"] = median(gen)
	out["system.new_ms"] = median(build)
	return accesses, nil
}

// addCounters sums the counters the per-layer metrics read.
func addCounters(t, s *idyll.Stats) {
	for _, p := range [][2]*uint64{
		{&t.EngineEvents, &s.EngineEvents}, {&t.EngineRingScheduled, &s.EngineRingScheduled},
		{&t.EngineFarScheduled, &s.EngineFarScheduled}, {&t.EngineCancelled, &s.EngineCancelled},
		{&t.L1TLBHits, &s.L1TLBHits}, {&t.L1TLBLookups, &s.L1TLBLookups},
		{&t.L2TLBHits, &s.L2TLBHits}, {&t.L2TLBLookups, &s.L2TLBLookups},
		{&t.MSHRMerges, &s.MSHRMerges}, {&t.FarFaults, &s.FarFaults},
		{&t.WalkerDemand, &s.WalkerDemand}, {&t.WalkerInval, &s.WalkerInval},
		{&t.WalkerUpdate, &s.WalkerUpdate}, {&t.WalkerLevelVisits, &s.WalkerLevelVisits},
		{&t.PWCHits, &s.PWCHits}, {&t.PWCLookups, &s.PWCLookups},
		{&t.WalkQueueRejects, &s.WalkQueueRejects},
		{&t.InvalNecessary, &s.InvalNecessary}, {&t.InvalUnnecessary, &s.InvalUnnecessary},
		{&t.IRMBInserts, &s.IRMBInserts}, {&t.IRMBMergeHits, &s.IRMBMergeHits},
		{&t.IRMBLookups, &s.IRMBLookups}, {&t.IRMBLookupHits, &s.IRMBLookupHits},
		{&t.IRMBDrains, &s.IRMBDrains}, {&t.IRMBWritebacks, &s.IRMBWritebacks},
		{&t.DirectoryFiltered, &s.DirectoryFiltered}, {&t.DirectoryTargeted, &s.DirectoryTargeted},
		{&t.MigrationRequests, &s.MigrationRequests}, {&t.Migrations, &s.Migrations},
		{&t.InvalReceived, &s.InvalReceived}, {&t.NVLinkBytes, &s.NVLinkBytes},
		{&t.PCIeBytes, &s.PCIeBytes}, {&t.L1DHits, &s.L1DHits}, {&t.L1DLookups, &s.L1DLookups},
		{&t.L2DHits, &s.L2DHits}, {&t.L2DLookups, &s.L2DLookups},
		{&t.LocalAccesses, &s.LocalAccesses}, {&t.RemoteAccesses, &s.RemoteAccesses},
	} {
		*p[0] += *p[1]
	}
	t.InvalBusy += s.InvalBusy
	t.MigrationWait.Count += s.MigrationWait.Count
	t.MigrationWait.Sum += s.MigrationWait.Sum
}

// pdesLayers times the pair serially through idyll.Simulate and on the
// parallel engine with nproc workers, checks that both give identical stats,
// and reads the cluster's window and message counts. The parallel knobs are
// reached by field name, so the probe reports zeros once they are removed.
func pdesLayers(e *env, p simPair, out map[string]float64) error {
	for _, k := range []string{"pdes.windows", "pdes.messages", "pdes.events_per_window", "pdes.par_speedup"} {
		out[k] = 0
	}
	var serial, par time.Duration
	var windows, messages, events float64
	for _, s := range p.schemes {
		start := time.Now()
		want, err := idyll.Simulate(p.machine, s, p.app, p.rc)
		if err != nil {
			return err
		}
		serial += time.Since(start)

		rc := p.rc
		if !setIntField(&rc, "Par", e.nproc) {
			return nil
		}
		start = time.Now()
		got, err := idyll.Simulate(p.machine, s, p.app, rc)
		if err != nil {
			return err
		}
		par += time.Since(start)
		if !reflect.DeepEqual(want, got) {
			return fmt.Errorf("%s: parallel stats differ from serial", s.Name)
		}

		m := p.machine
		m.CUsPerGPU = p.rc.CUsPerGPU
		sys, err := idyll.NewSystem(m, s)
		if err != nil {
			return err
		}
		trace := idyll.GenerateTrace(p.app, m.NumGPUs, m.CUsPerGPU, p.rc.AccessesPerCU, p.rc.Seed)
		st, err := sys.Run(trace)
		if err != nil {
			return err
		}
		w, okW := clusterStat(sys, "Windows")
		msg, okM := clusterStat(sys, "Messages")
		if !okW || !okM {
			return nil
		}
		windows += w
		messages += msg
		events += float64(st.EngineEvents)
	}
	out["pdes.windows"] = windows
	out["pdes.messages"] = messages
	out["pdes.events_per_window"] = frac(events, windows)
	out["pdes.par_speedup"] = frac(float64(serial), float64(par))
	return nil
}

// setIntField sets an int field of *v by name, reporting whether it exists.
func setIntField(v any, name string, x int) bool {
	f := reflect.ValueOf(v).Elem().FieldByName(name)
	if !f.IsValid() || f.Kind() != reflect.Int || !f.CanSet() {
		return false
	}
	f.SetInt(int64(x))
	return true
}

// clusterStat reads sys.Cluster.Stats().<name> by reflection.
func clusterStat(sys any, name string) (float64, bool) {
	cl := reflect.ValueOf(sys).Elem().FieldByName("Cluster")
	if !cl.IsValid() || cl.IsNil() {
		return 0, false
	}
	stats := cl.MethodByName("Stats")
	if !stats.IsValid() || stats.Type().NumIn() != 0 || stats.Type().NumOut() != 1 {
		return 0, false
	}
	f := stats.Call(nil)[0].FieldByName(name)
	if !f.IsValid() || !f.CanUint() {
		return 0, false
	}
	return float64(f.Uint()), true
}

// checkpointLayers checkpoints a system after the warmup phase of a warmup
// spec, as idylld does before forking the spec's cells, and resumes a fresh
// system from the bytes.
func checkpointLayers(ctx context.Context, w specWire, out map[string]float64) error {
	s, err := config.SchemeByName(w.Scheme)
	if err != nil {
		return err
	}
	app, err := idyll.App(w.App)
	if err != nil {
		return err
	}
	m := idyll.DefaultMachine()
	m.AccessCounterThreshold = idyll.DefaultExperimentOptions().CounterThreshold
	m.CUsPerGPU = w.Options.CUs
	trace := idyll.GenerateTrace(app, m.NumGPUs, m.CUsPerGPU, w.Options.Accesses,
		experiment.CellSeed(w.Options.Seed, w.Figure, w.App))
	var save, resume []float64
	var size int
	for i := 0; i < 3; i++ {
		sys, err := idyll.NewSystem(m, s)
		if err != nil {
			return err
		}
		if err := sys.RunWarmupCtx(ctx, trace, w.Options.Warmup); err != nil {
			return err
		}
		start := time.Now()
		blob, err := sys.Checkpoint()
		if err != nil {
			return err
		}
		save = append(save, float64(time.Since(start))/float64(time.Millisecond))
		fresh, err := idyll.NewSystem(m, s)
		if err != nil {
			return err
		}
		start = time.Now()
		if err := fresh.Resume(blob); err != nil {
			return err
		}
		resume = append(resume, float64(time.Since(start))/float64(time.Millisecond))
		size = len(blob)
	}
	out["checkpoint.bytes"] = float64(size)
	out["checkpoint.save_ms"] = median(save)
	out["checkpoint.resume_ms"] = median(resume)
	return nil
}

// replayLayers feeds the pair's generated VPN and cache-line streams into
// the TLB, page table, IRMB and set-associative cache APIs.
func replayLayers(p simPair, out map[string]float64) error {
	m := p.machine
	trace := idyll.GenerateTrace(p.app, m.NumGPUs, p.rc.CUsPerGPU, p.rc.AccessesPerCU, p.rc.Seed)
	var vpns []memdef.VPN
	var lines []uint64
	for _, gpu := range trace.Accesses {
		for _, cu := range gpu {
			for _, a := range cu {
				vpns = append(vpns, memdef.PageNum(a.VA, m.PageSize))
				lines = append(lines, uint64(a.VA)/memdef.CachelineBytes)
			}
		}
	}
	if len(vpns) == 0 {
		return fmt.Errorf("empty trace")
	}
	reps := max(1, 200_000/len(vpns))
	perOp := func(ops int, fn func()) float64 {
		var ns []float64
		for r := 0; r < 5; r++ {
			start := time.Now()
			for i := 0; i < reps; i++ {
				fn()
			}
			ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(reps*ops))
		}
		return median(ns)
	}
	out["tlb.replay_lookup_ns"] = perOp(len(vpns), func() {
		t := tlb.New(tlb.Config{Entries: m.L2TLBEntries, Ways: m.L2TLBWays, Latency: m.L2TLBLatency})
		for _, v := range vpns {
			if _, ok := t.Lookup(v); !ok {
				t.Fill(v, tlb.Entry{})
			}
		}
	})
	pt := pagetable.New(m.PageSize)
	for _, v := range vpns {
		pt.Map(v, pagetable.PTE{Valid: true})
	}
	buf := make([]pagetable.Visit, 0, pt.Levels())
	out["pagetable.replay_walk_ns"] = perOp(len(vpns), func() {
		for _, v := range vpns {
			buf, _, _ = pt.WalkInto(buf, v)
		}
	})
	out["core.replay_irmb_ns"] = perOp(2*len(vpns), func() {
		b := core.NewIRMB(core.DefaultGeometry)
		for _, v := range vpns {
			b.Insert(v)
			b.Lookup(v)
		}
	})
	sets := max(1, m.L1CacheBytes/memdef.CachelineBytes/m.L1CacheWays)
	out["cache.replay_lookup_ns"] = perOp(len(lines), func() {
		c := cache.New[uint64, struct{}](sets, m.L1CacheWays, func(k uint64) uint64 { return k })
		for _, l := range lines {
			if _, ok := c.Lookup(l); !ok {
				c.Insert(l, struct{}{})
			}
		}
	})
	return nil
}

// serviceLayers times spec decoding, canonicalization and hashing on
// catalogue specs, and the integrity envelope on a payload built from them.
func serviceLayers(specs [][]byte, out map[string]float64) error {
	var us []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		n := 0
		for n < 2000 {
			for _, raw := range specs {
				spec, err := service.DecodeSpec(raw)
				if err != nil {
					return err
				}
				canon, err := spec.Canonicalize()
				if err != nil {
					return err
				}
				if _, err := canon.Hash(); err != nil {
					return err
				}
				n++
			}
		}
		us = append(us, float64(time.Since(start).Microseconds())/float64(n))
	}
	out["service.spec_hash_us"] = median(us)

	payload := []byte(strings.Repeat(string(specs[0]), 1+(1<<20)/len(specs[0])))
	mb := float64(len(payload)) / (1 << 20)
	var wrap, unwrap []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		blob := integrity.Wrap(payload)
		wrap = append(wrap, float64(time.Since(start).Microseconds())/mb)
		start = time.Now()
		if _, err := integrity.Unwrap(blob); err != nil {
			return err
		}
		unwrap = append(unwrap, float64(time.Since(start).Microseconds())/mb)
	}
	out["integrity.wrap_us_per_mb"] = median(wrap)
	out["integrity.unwrap_us_per_mb"] = median(unwrap)
	return nil
}

// fleetLayers reads the fleet's counters after a load and probes the peer
// endpoints: GET /v1/cache/{hash} for recently answered results (memory
// tier) and the earliest answered ones (evicted to disk), and a peer fill
// into a fresh worker that holds nothing.
func fleetLayers(ctx context.Context, hc *http.Client, f *fleet, cat []entry, recs []record) (map[string]float64, error) {
	out := map[string]float64{}
	m, err := scrapeMetrics(hc, f.coord.url)
	if err != nil {
		return nil, err
	}
	// The coordinator's rollup carries its routing counters and the
	// workers' summed counters; its own cache answers are the submissions
	// that came back Cached.
	var coord, sent float64
	for _, r := range recs {
		if !r.sent.IsZero() {
			sent++
			if r.coordHit {
				coord++
			}
		}
	}
	out["service.cache_hits"] = coord + m["fleet_cache_hits"]
	out["service.cache_misses"] = sent - coord + m["fleet_cache_misses"]
	out["service.cache_disk_hits"] = m["fleet_cache_disk_hits"]
	out["service.jobs_deduped"] = m["idylld_jobs_deduped"] + m["fleet_jobs_deduped"]
	out["service.jobs_shed"] = m["idylld_jobs_shed"] + m["fleet_jobs_shed"]
	out["store.ckpt_hits"] = m["fleet_ckpt_hits"]
	out["store.ckpt_misses"] = m["fleet_ckpt_misses"]
	out["store.ckpt_disk_hits"] = m["fleet_ckpt_disk_hits"]
	out["fleet.jobs_dispatched"] = sumPrefix(m, "idylld_fleet_jobs_dispatched")
	out["fleet.replications"] = m["idylld_fleet_replications"]
	out["fleet.peer_fills"] = m["fleet_peer_fills"]
	out["fleet.reroutes"] = m["idylld_fleet_reroutes"]
	wcache := m["idylld_fleet_results_cache"]
	peer := m["idylld_fleet_results_peer"]
	computed := m["idylld_fleet_results_computed"]
	total := coord + wcache + peer + computed
	out["fleet.source_coord_frac"] = frac(coord, total)
	out["fleet.source_worker_cache_frac"] = frac(wcache, total)
	out["fleet.source_peer_frac"] = frac(peer, total)
	out["fleet.source_computed_frac"] = frac(computed, total)

	var coordMS, relayMS []float64
	var hashes []string
	seen := map[string]bool{}
	for _, r := range recs {
		if r.err != nil || r.sent.IsZero() {
			continue
		}
		ms := float64(r.latency) / float64(time.Millisecond)
		switch {
		case r.coordHit:
			coordMS = append(coordMS, ms)
		case r.hit:
			relayMS = append(relayMS, ms)
		}
		if !seen[r.st.Hash] {
			seen[r.st.Hash] = true
			hashes = append(hashes, r.st.Hash)
		}
	}
	out["fleet.coord_hit_ms_p50"] = median(coordMS)
	out["fleet.relay_hit_ms_p50"] = median(relayMS)

	n := min(20, len(hashes)/2)
	if n == 0 {
		return nil, fmt.Errorf("no answered results to probe")
	}
	get := func(hs []string) ([]float64, error) {
		var us []float64
		for _, h := range hs {
			for _, w := range f.workers {
				start := time.Now()
				resp, err := hc.Get(w.url + "/v1/cache/" + h)
				if err != nil {
					return nil, err
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil {
					return nil, err
				}
				if resp.StatusCode == http.StatusOK {
					us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
				}
			}
		}
		return us, nil
	}
	recent, err := get(hashes[len(hashes)-n:])
	if err != nil {
		return nil, err
	}
	old, err := get(hashes[:n])
	if err != nil {
		return nil, err
	}
	out["service.cache_get_us"] = median(recent)
	out["service.disk_get_us"] = median(old)

	probe, err := startDaemon(ctx, f.coord.cmd.Path, f.dir, "probe", "-worker", "-fleet-id", "probe",
		"-cache-dir", filepath.Join(f.dir, "probe", "cache"))
	if err != nil {
		return nil, err
	}
	defer probe.stop()
	var fill []float64
	for _, h := range hashes[len(hashes)-n:] {
		body, _ := json.Marshal(map[string]any{"hash": h, "sources": []string{f.workers[0].url, f.workers[1].url}})
		start := time.Now()
		resp, err := hc.Post(probe.url+"/v1/cache/fill", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			fill = append(fill, float64(time.Since(start).Nanoseconds())/1e6)
		}
	}
	out["fleet.peer_fill_ms_p50"] = median(fill)
	out["service.cache_put_us"] = max(0, median(fill)*1e3-median(recent))
	return out, nil
}

// loadgenLayers reports the load generator's health and the run's sample
// counts and tracing overhead.
func loadgenLayers(ops []op, out map[string]float64) {
	var lag []float64
	hits, misses := 0.0, 0.0
	for _, o := range ops {
		if o.probe {
			continue
		}
		lag = append(lag, float64(o.lag)/float64(time.Millisecond))
		if o.hit {
			hits++
		} else {
			misses++
		}
	}
	out["loadgen.requests"] = float64(len(lag))
	out["loadgen.lag_ms_p99"] = percentile(lag, 99)
	out["bench.hit_samples"] = hits
	out["bench.miss_samples"] = misses
	out["bench.trace_overhead_frac"] = traceOverhead(ops)
}
