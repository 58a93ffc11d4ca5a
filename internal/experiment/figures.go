package experiment

import (
	"fmt"

	"idyll/internal/config"
	"idyll/internal/core"
	"idyll/internal/memdef"
	"idyll/internal/stats"
	"idyll/internal/workload"
)

// Every FigureNN builds the figure's (scheme × application) matrix as cell
// specs, fans them out on the suite runner (see runner.go), and assembles
// the table from the results in registry order — so regeneration scales
// with cores while rendering byte-identical output at any -jobs width.

// appColumns builds the paper's column list with a trailing "Ave.".
func appColumns(apps []string) []string {
	return append(append([]string{}, apps...), "Ave.")
}

// withMean appends the arithmetic mean to a value row.
func withMean(values []float64) []float64 {
	return append(values, Mean(values))
}

// Figure1 reproduces the motivation study: the fraction of execution time
// attributable to page-table invalidation handling on a 2-GPU system
// (measured as the execution time eliminated by zero-latency invalidation,
// the simulator equivalent of the uvm-eval profile).
func Figure1(o Options) (*Table, error) {
	m := config.Default()
	m.NumGPUs = 2
	apps := workload.Fig1Abbrs()
	t := &Table{
		Title:   "Figure 1: Page table invalidation overhead (2-GPU)",
		Caption: "fraction of execution time spent handling PTE invalidations",
		Columns: appColumns(apps),
	}
	base, zero, err := pairRuns("fig1", o, m, config.ZeroLatency(), apps)
	if err != nil {
		return nil, err
	}
	var row []float64
	for j := range apps {
		overhead := 1 - float64(zero[j].ExecCycles)/float64(base[j].ExecCycles)
		if overhead < 0 {
			overhead = 0
		}
		row = append(row, overhead)
	}
	t.AddRow("Invalidation overhead", withMean(row))
	return t, nil
}

// Figure2 compares migration policies against access-counter migration:
// first-touch, on-touch, and the zero-latency-invalidation ideal.
func Figure2(o Options) (*Table, error) {
	m := config.Default()
	apps := o.apps()
	t := &Table{
		Title:   "Figure 2: Migration policies relative to access counter-based",
		Caption: "normalized performance (higher is better)",
		Columns: appColumns(apps),
	}
	schemes := []config.Scheme{
		config.FirstTouchScheme(), config.OnTouchScheme(), config.ZeroLatency(),
	}
	rows, err := schemeMatrix("fig2", o, m, apps, schemes)
	if err != nil {
		return nil, err
	}
	for i, s := range schemes {
		t.AddRow(s.Name, withMean(rows[i]))
	}
	return t, nil
}

// Table3 reports the application list with *measured* MPKI next to the
// paper's reported values.
func Table3(o Options) (*Table, error) {
	m := config.Default()
	apps := o.apps()
	t := &Table{
		Title:   "Table 3: Applications (measured vs paper MPKI)",
		Columns: appColumns(apps),
	}
	res, err := baselineRuns("table3", o, m, apps)
	if err != nil {
		return nil, err
	}
	var measured, paper []float64
	for j, abbr := range apps {
		app, _ := workload.App(abbr)
		measured = append(measured, res[j].MPKI())
		paper = append(paper, app.PaperMPKI)
	}
	t.AddRow("Measured MPKI", withMean(measured))
	t.AddRow("Paper MPKI", withMean(paper))
	return t, nil
}

// Figure4 reports the distribution of accesses to pages shared by k GPUs.
// Page sharing is a property of the workload, so each app's column is
// computed from the trace its baseline cell would replay; no cell runs.
func Figure4(o Options) (*Table, error) {
	m := config.Default()
	apps := o.apps()
	t := &Table{
		Title:   "Figure 4: Distribution of accesses referencing shared pages",
		Caption: "fraction of accesses to pages accessed by k GPUs",
		Columns: appColumns(apps),
	}
	rows := make([][]float64, m.NumGPUs)
	for _, abbr := range apps {
		if err := o.Context().Err(); err != nil {
			return nil, err
		}
		spec := CellSpec{Figure: "fig4", App: abbr, Machine: m, Scheme: config.Baseline()}
		p, err := planCell(spec, o)
		if err != nil {
			return nil, cellError(spec, err)
		}
		dist := p.trace().Sharing(m.PageSize).AccessDistribution(m.NumGPUs)
		for k := 1; k <= m.NumGPUs; k++ {
			rows[k-1] = append(rows[k-1], dist[k])
		}
	}
	labels := []string{"One GPU", "Shared by 2", "Shared by 3", "Shared by 4"}
	for k := 0; k < m.NumGPUs && k < len(labels); k++ {
		t.AddRow(labels[k], withMean(rows[k]))
	}
	return t, nil
}

// Figure5 reports the page-walker request mix: demand TLB misses vs
// necessary and unnecessary invalidation requests.
func Figure5(o Options) (*Table, error) {
	m := config.Default()
	apps := o.apps()
	t := &Table{
		Title:   "Figure 5: Walker request mix (baseline)",
		Caption: "fractions of all page-walker requests",
		Columns: appColumns(apps),
	}
	res, err := baselineRuns("fig5", o, m, apps)
	if err != nil {
		return nil, err
	}
	var demand, necessary, unnecessary []float64
	for j := range apps {
		st := res[j]
		total := float64(st.WalkerDemand + st.WalkerInval + st.WalkerUpdate)
		demand = append(demand, float64(st.WalkerDemand+st.WalkerUpdate)/total)
		necessary = append(necessary, float64(st.InvalNecessary)/total)
		unnecessary = append(unnecessary, float64(st.InvalUnnecessary)/total)
	}
	t.AddRow("TLB miss requests", withMean(demand))
	t.AddRow("Necessary invalidation", withMean(necessary))
	t.AddRow("Unnecessary invalidation", withMean(unnecessary))
	return t, nil
}

// Figure6 reports demand TLB-miss latency with invalidation contention
// removed (zero-latency invalidation), normalized to baseline, plus the
// actual baseline cycles the paper plots on the right axis.
func Figure6(o Options) (*Table, error) {
	m := config.Default()
	apps := o.apps()
	t := &Table{
		Title:   "Figure 6: Demand TLB miss latency without invalidation contention",
		Caption: "normalized latency (row 1), actual baseline/ideal cycles (rows 2-3)",
		Columns: appColumns(apps),
	}
	base, zero, err := pairRuns("fig6", o, m, config.ZeroLatency(), apps)
	if err != nil {
		return nil, err
	}
	var rel, baseCyc, idealCyc []float64
	for j := range apps {
		rel = append(rel, zero[j].DemandMiss.Mean()/base[j].DemandMiss.Mean())
		baseCyc = append(baseCyc, base[j].DemandMiss.Mean())
		idealCyc = append(idealCyc, zero[j].DemandMiss.Mean())
	}
	t.AddRow("Eliminating invalidation (rel.)", withMean(rel))
	t.AddRow("Baseline actual cycles", withMean(baseCyc))
	t.AddRow("Ideal actual cycles", withMean(idealCyc))
	return t, nil
}

// Figure7 reports the migration waiting latency as a fraction of total
// migration latency, plus the actual mean cycles.
func Figure7(o Options) (*Table, error) {
	m := config.Default()
	apps := o.apps()
	t := &Table{
		Title:   "Figure 7: Page migration latency vs waiting latency",
		Caption: "waiting fraction of total migration latency; actual mean cycles",
		Columns: appColumns(apps),
	}
	res, err := baselineRuns("fig7", o, m, apps)
	if err != nil {
		return nil, err
	}
	var frac, total, wait []float64
	for j := range apps {
		st := res[j]
		frac = append(frac, st.MigrationWait.Mean()/st.MigrationTotal.Mean())
		total = append(total, st.MigrationTotal.Mean())
		wait = append(wait, st.MigrationWait.Mean())
	}
	t.AddRow("Waiting fraction", withMean(frac))
	t.AddRow("Migration latency (cycles)", withMean(total))
	t.AddRow("Waiting latency (cycles)", withMean(wait))
	return t, nil
}

// Figure11 is the headline result: normalized performance of Only Lazy,
// Only In-PTE Directory, IDYLL-InMem, IDYLL, and Zero-Latency Invalidation.
func Figure11(o Options) (*Table, error) {
	m := config.Default()
	apps := o.apps()
	t := &Table{
		Title:   "Figure 11: Performance of each scheme relative to baseline",
		Caption: "normalized performance (higher is better)",
		Columns: appColumns(apps),
	}
	schemes := []config.Scheme{
		config.OnlyLazy(), config.OnlyInPTE(), config.IDYLLInMem(),
		config.IDYLL(), config.ZeroLatency(),
	}
	rows, err := schemeMatrix("fig11", o, m, apps, schemes)
	if err != nil {
		return nil, err
	}
	for i, s := range schemes {
		t.AddRow(s.Name, withMean(rows[i]))
	}
	return t, nil
}

// Figure12 reports IDYLL's demand TLB-miss latency relative to baseline.
func Figure12(o Options) (*Table, error) {
	return relativeMetric(o, "fig12",
		"Figure 12: Demand TLB miss request latency (IDYLL/baseline)",
		func(st *stats.Sim) float64 { return float64(st.DemandMiss.Sum) })
}

// Figure13 reports IDYLL's invalidation request latency and count relative
// to baseline.
func Figure13(o Options) (*Table, error) {
	m := config.Default()
	apps := o.apps()
	t := &Table{
		Title:   "Figure 13: Invalidation requests under IDYLL (relative to baseline)",
		Caption: "total latency and total number of invalidation requests",
		Columns: appColumns(apps),
	}
	base, idyll, err := pairRuns("fig13", o, m, config.IDYLL(), apps)
	if err != nil {
		return nil, err
	}
	var lat, num []float64
	for j := range apps {
		lat = append(lat, float64(idyll[j].Inval.Sum)/float64(maxU64(uint64(base[j].Inval.Sum), 1)))
		num = append(num, float64(idyll[j].InvalReceived)/float64(maxU64(base[j].InvalReceived, 1)))
	}
	t.AddRow("Total latency", withMean(lat))
	t.AddRow("Total number", withMean(num))
	return t, nil
}

// Figure14 reports IDYLL's page-migration waiting latency vs baseline.
func Figure14(o Options) (*Table, error) {
	return relativeMetric(o, "fig14",
		"Figure 14: Page migration waiting latency (IDYLL/baseline)",
		func(st *stats.Sim) float64 { return float64(st.MigrationWait.Sum) })
}

// relativeMetric builds a one-row table of IDYLL/baseline ratios of metric.
func relativeMetric(o Options, fig, title string, metric func(*stats.Sim) float64) (*Table, error) {
	m := config.Default()
	apps := o.apps()
	t := &Table{Title: title, Caption: "lower is better", Columns: appColumns(apps)}
	base, idyll, err := pairRuns(fig, o, m, config.IDYLL(), apps)
	if err != nil {
		return nil, err
	}
	var row []float64
	for j := range apps {
		b := metric(base[j])
		if b == 0 {
			b = 1
		}
		row = append(row, metric(idyll[j])/b)
	}
	t.AddRow("Relative", withMean(row))
	return t, nil
}

// Figure15 sweeps the IRMB geometry: (bases, offsets) of (16,8), (16,16),
// (32,8), (64,16) plus the default (32,16).
func Figure15(o Options) (*Table, error) {
	m := config.Default()
	apps := o.apps()
	t := &Table{
		Title:   "Figure 15: IDYLL with different IRMB sizes",
		Caption: "normalized performance; (bases, offsets)",
		Columns: appColumns(apps),
	}
	geoms := []core.Geometry{
		{Bases: 16, Offsets: 8}, {Bases: 16, Offsets: 16},
		{Bases: 32, Offsets: 8}, {Bases: 32, Offsets: 16}, {Bases: 64, Offsets: 16},
	}
	schemes := make([]config.Scheme, len(geoms))
	for i, g := range geoms {
		s := config.IDYLL()
		s.IRMB = g
		schemes[i] = s
	}
	rows, err := schemeMatrix("fig15", o, m, apps, schemes)
	if err != nil {
		return nil, err
	}
	for i, g := range geoms {
		t.AddRow(fmt.Sprintf("(%d,%d)", g.Bases, g.Offsets), withMean(rows[i]))
	}
	return t, nil
}

// Figure16 evaluates IDYLL with 16 and 32 page-table-walker threads,
// normalized to a baseline with the same thread count.
func Figure16(o Options) (*Table, error) {
	apps := o.apps()
	t := &Table{
		Title:   "Figure 16: IDYLL with 16- and 32-threaded page table walk",
		Caption: "normalized to baseline with the same walker count",
		Columns: appColumns(apps),
	}
	threadCounts := []int{16, 32}
	cs := newCells("fig16", o)
	idx := make([][][2]int, len(threadCounts)) // [threads][app](base, idyll)
	for k, threads := range threadCounts {
		m := config.Default()
		m.PTWThreads = threads
		for _, abbr := range apps {
			idx[k] = append(idx[k], [2]int{
				cs.add(m, config.Baseline(), abbr),
				cs.add(m, config.IDYLL(), abbr),
			})
		}
	}
	res, err := cs.run()
	if err != nil {
		return nil, err
	}
	for k, threads := range threadCounts {
		var row []float64
		for j := range apps {
			row = append(row, res[idx[k][j][1]].Speedup(res[idx[k][j][0]]))
		}
		t.AddRow(fmt.Sprintf("%d threads", threads), withMean(row))
	}
	return t, nil
}

// Figure17 evaluates IDYLL with a 2048-entry, 64-way L2 TLB.
func Figure17(o Options) (*Table, error) {
	m := config.Default()
	m.L2TLBEntries = 2048
	m.L2TLBWays = 64
	apps := o.apps()
	t := &Table{
		Title:   "Figure 17: IDYLL with 2048-entry L2 TLB",
		Caption: "normalized to baseline with the same L2 TLB",
		Columns: appColumns(apps),
	}
	base, idyll, err := pairRuns("fig17", o, m, config.IDYLL(), apps)
	if err != nil {
		return nil, err
	}
	var row []float64
	for j := range apps {
		row = append(row, idyll[j].Speedup(base[j]))
	}
	t.AddRow("IDYLL", withMean(row))
	return t, nil
}

// scaleAppToGPUs keeps the input dataset constant as GPU count grows
// (§7.2: "we only increase the number of GPUs without changing the
// application's input dataset sizes").
func scaleAppToGPUs(app workload.Params, numGPUs int) workload.Params {
	app.PagesPerGPU = maxInt(256, app.PagesPerGPU*4/numGPUs)
	return app
}

// Figure18 evaluates IDYLL on 8- and 16-GPU systems.
func Figure18(o Options) (*Table, error) {
	return gpuCountStudy(o, "fig18", "Figure 18: IDYLL with 8 and 16 GPUs",
		[]int{8, 16}, 11)
}

// Figure19 evaluates IDYLL with only 4 unused PTE bits on 8/16/32 GPUs,
// stressing the in-PTE directory's modular hash.
func Figure19(o Options) (*Table, error) {
	return gpuCountStudy(o, "fig19", "Figure 19: IDYLL with 4 unused bits",
		[]int{8, 16, 32}, 4)
}

// gpuCountStudy runs IDYLL vs baseline at several GPU counts.
func gpuCountStudy(o Options, fig, title string, gpuCounts []int, unusedBits int) (*Table, error) {
	apps := o.apps()
	t := &Table{
		Title:   title,
		Caption: "normalized to baseline with the same GPU count",
		Columns: appColumns(apps),
	}
	cs := newCells(fig, o)
	idx := make([][][2]int, len(gpuCounts)) // [gpuCount][app](base, idyll)
	for k, n := range gpuCounts {
		m := config.Default()
		m.NumGPUs = n
		for _, abbr := range apps {
			app, err := workload.App(abbr)
			if err != nil {
				return nil, err
			}
			app = scaleAppToGPUs(app, n)
			s := config.IDYLL()
			s.UnusedBits = unusedBits
			idx[k] = append(idx[k], [2]int{
				cs.addParams(m, config.Baseline(), app),
				cs.addParams(m, s, app),
			})
		}
	}
	res, err := cs.run()
	if err != nil {
		return nil, err
	}
	for k, n := range gpuCounts {
		var row []float64
		for j := range apps {
			row = append(row, res[idx[k][j][1]].Speedup(res[idx[k][j][0]]))
		}
		t.AddRow(fmt.Sprintf("%d-GPU", n), withMean(row))
	}
	return t, nil
}

// Figure20 studies the access-counter threshold: baseline and IDYLL at the
// paper's 256 and 512 (scaled by TraceScaleFactor), all normalized to the
// 256-scaled baseline.
func Figure20(o Options) (*Table, error) {
	apps := o.apps()
	t := &Table{
		Title: "Figure 20: IDYLL with 512 access counter threshold",
		Caption: fmt.Sprintf("thresholds are the paper's 256/512 divided by the trace scale factor %d",
			TraceScaleFactor),
		Columns: appColumns(apps),
	}
	o256 := o
	o256.CounterThreshold = maxInt(1, 256/TraceScaleFactor)
	o512 := o
	o512.CounterThreshold = maxInt(1, 512/TraceScaleFactor)
	m := config.Default()

	// All four (scheme, threshold) runs of an app share its cell seed, so
	// the thresholds compare on the byte-identical trace.
	cs := newCells("fig20", o)
	type appCells struct{ base256, idyll256, base512, idyll512 int }
	idx := make([]appCells, len(apps))
	for j, abbr := range apps {
		idx[j] = appCells{
			base256:  cs.addOpts(m, config.Baseline(), abbr, o256),
			idyll256: cs.addOpts(m, config.IDYLL(), abbr, o256),
			base512:  cs.addOpts(m, config.Baseline(), abbr, o512),
			idyll512: cs.addOpts(m, config.IDYLL(), abbr, o512),
		}
	}
	res, err := cs.run()
	if err != nil {
		return nil, err
	}
	addRow := func(label string, cell func(appCells) int) {
		var row []float64
		for j := range apps {
			row = append(row, res[cell(idx[j])].Speedup(res[idx[j].base256]))
		}
		t.AddRow(label, withMean(row))
	}
	addRow("256 IDYLL", func(c appCells) int { return c.idyll256 })
	addRow("512 baseline", func(c appCells) int { return c.base512 })
	addRow("512 IDYLL", func(c appCells) int { return c.idyll512 })
	return t, nil
}

// Figure21 evaluates IDYLL with 2 MB pages on enlarged inputs (§7.3).
//
// At 2 MB the UVM va_block is a single page, so the migration block is 1;
// and because one large page absorbs the access traffic of 512 small ones,
// the trace-scaled counter threshold rises accordingly. The generators'
// page-unit parameters are re-expressed in 2 MB pages with the enlarged
// input the paper uses (large footprint, false sharing within big pages
// arises naturally from the pools spanning fewer, bigger pages).
func Figure21(o Options) (*Table, error) {
	m := config.Default()
	m.PageSize = memdef.Page2M
	m.MigrationBlockPages = 1
	o2 := o
	// A 2 MB page absorbs the access traffic of 512 small pages, so the
	// trace-scaled threshold scales back up (×16 ≈ the paper's relative
	// conservativeness for big-page migration).
	o2.CounterThreshold = maxInt(1, o.CounterThreshold*16)
	apps := o.apps()
	t := &Table{
		Title:   "Figure 21: IDYLL with 2MB pages",
		Caption: "enlarged inputs; normalized to 2MB-page baseline",
		Columns: appColumns(apps),
	}
	cs := newCells("fig21", o)
	idx := make([][2]int, len(apps))
	for j, abbr := range apps {
		app, err := workload.App(abbr)
		if err != nil {
			return nil, err
		}
		// Re-express footprints in 2 MB pages on an enlarged (16×) input:
		// 4 KB pages / 512 × 16 = /32. Hot pools shrink less (shared arrays
		// span fewer large pages — the false-sharing effect).
		app.PagesPerGPU = maxInt(64, app.PagesPerGPU/32)
		app.HotPages = maxInt(8, app.HotPages/2)
		idx[j] = [2]int{
			cs.addParamsOpts(m, config.Baseline(), app, o2),
			cs.addParamsOpts(m, config.IDYLL(), app, o2),
		}
	}
	res, err := cs.run()
	if err != nil {
		return nil, err
	}
	var row []float64
	for j := range apps {
		row = append(row, res[idx[j][1]].Speedup(res[idx[j][0]]))
	}
	t.AddRow("IDYLL (2MB pages)", withMean(row))
	return t, nil
}

// Figure22 compares IDYLL against page replication.
func Figure22(o Options) (*Table, error) {
	m := config.Default()
	apps := o.apps()
	t := &Table{
		Title:   "Figure 22: IDYLL relative to page replication",
		Caption: "IDYLL performance normalized to the replication policy",
		Columns: appColumns(apps),
	}
	repl, idyll, err := pairSchemes("fig22", o, m, config.ReplicationScheme(), config.IDYLL(), apps)
	if err != nil {
		return nil, err
	}
	var row []float64
	for j := range apps {
		row = append(row, idyll[j].Speedup(repl[j]))
	}
	t.AddRow("IDYLL vs replication", withMean(row))
	return t, nil
}

// pairSchemes runs two arbitrary schemes for every app in one pool pass.
func pairSchemes(fig string, o Options, m config.Machine, a, b config.Scheme, apps []string) (ra, rb []*stats.Sim, err error) {
	cs := newCells(fig, o)
	for _, abbr := range apps {
		cs.add(m, a, abbr)
		cs.add(m, b, abbr)
	}
	res, err := cs.run()
	if err != nil {
		return nil, nil, err
	}
	ra = make([]*stats.Sim, len(apps))
	rb = make([]*stats.Sim, len(apps))
	for j := range apps {
		ra[j], rb[j] = res[2*j], res[2*j+1]
	}
	return ra, rb, nil
}

// Figure23 compares Trans-FW, IDYLL, and the combination.
func Figure23(o Options) (*Table, error) {
	m := config.Default()
	apps := o.apps()
	t := &Table{
		Title:   "Figure 23: Comparison to Trans-FW",
		Caption: "normalized to baseline",
		Columns: appColumns(apps),
	}
	schemes := []config.Scheme{
		config.TransFWScheme(), config.IDYLL(), config.IDYLLTransFW(),
	}
	rows, err := schemeMatrix("fig23", o, m, apps, schemes)
	if err != nil {
		return nil, err
	}
	for i, s := range schemes {
		t.AddRow(s.Name, withMean(rows[i]))
	}
	return t, nil
}

// Figure24 evaluates IDYLL on the layer-parallel DNN workloads.
func Figure24(o Options) (*Table, error) {
	m := config.Default()
	apps := workload.DNNApps()
	cols := make([]string, 0, len(apps)+1)
	for _, a := range apps {
		cols = append(cols, a.Abbr)
	}
	t := &Table{
		Title:   "Figure 24: IDYLL with DNN workloads",
		Caption: "normalized to baseline",
		Columns: append(cols, "Ave."),
	}
	cs := newCells("fig24", o)
	idx := make([][2]int, len(apps))
	for j, app := range apps {
		idx[j] = [2]int{
			cs.addParams(m, config.Baseline(), app),
			cs.addParams(m, config.IDYLL(), app),
		}
	}
	res, err := cs.run()
	if err != nil {
		return nil, err
	}
	var row []float64
	for j := range apps {
		row = append(row, res[idx[j][1]].Speedup(res[idx[j][0]]))
	}
	t.AddRow("IDYLL", withMean(row))
	return t, nil
}

// AblationDrainOnIdle quantifies the IRMB drain-on-idle design choice:
// IDYLL with idle-time write-back vs write-back only on eviction.
func AblationDrainOnIdle(o Options) (*Table, error) {
	m := config.Default()
	apps := o.apps()
	t := &Table{
		Title:   "Ablation: IRMB drain-on-idle vs eviction-only write-back",
		Caption: "normalized to baseline",
		Columns: appColumns(apps),
	}
	noDrainScheme := config.IDYLL()
	noDrainScheme.NoIdleDrain = true
	schemes := []config.Scheme{config.IDYLL(), noDrainScheme}
	rows, err := schemeMatrix("ablation-drain", o, m, apps, schemes)
	if err != nil {
		return nil, err
	}
	t.AddRow("Drain on idle (default)", withMean(rows[0]))
	t.AddRow("Eviction-only", withMean(rows[1]))
	return t, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
