// Package idyll is a from-scratch reproduction of "IDYLL: Enhancing Page
// Translation in Multi-GPUs via Light Weight PTE Invalidations" (Li et al.,
// MICRO 2023): an event-driven multi-GPU address-translation simulator with
// the paper's two mechanisms — the in-PTE invalidation directory and lazy
// invalidation via the Invalidation Request Merging Buffer (IRMB) — plus
// every baseline and comparison point of its evaluation.
//
// This package is the public facade. A minimal run:
//
//	app, _ := idyll.App("PR")
//	machine := idyll.DefaultMachine()
//	base, _ := idyll.Simulate(machine, idyll.Baseline(), app, idyll.RunConfig{})
//	opt, _ := idyll.Simulate(machine, idyll.IDYLL(), app, idyll.RunConfig{})
//	fmt.Printf("IDYLL speedup on PageRank: %.2fx\n", opt.Speedup(base))
//
// The full evaluation regenerates via the experiment suite:
//
//	table, _ := idyll.Experiment("fig11", idyll.DefaultExperimentOptions())
//	fmt.Println(table.Render())
//
// Lower-level building blocks (the event engine, TLBs, page tables, GMMU,
// UVM driver, interconnect, IRMB, directories) live in internal/ packages
// and are documented there; see DESIGN.md for the system inventory.
package idyll

import (
	"idyll/internal/config"
	"idyll/internal/core"
	"idyll/internal/experiment"
	"idyll/internal/stats"
	"idyll/internal/system"
	"idyll/internal/workload"
)

// Machine is the simulated hardware configuration (the paper's Table 2).
type Machine = config.Machine

// Scheme is one design point of the evaluation matrix.
type Scheme = config.Scheme

// Stats is the measurement set produced by one simulation run.
type Stats = stats.Sim

// Workload describes an application's trace generator (Table 3 entries).
type Workload = workload.Params

// Trace is a generated multi-GPU access trace.
type Trace = workload.Trace

// System is an assembled machine instance (advanced use; Simulate covers
// the common case).
type System = system.System

// Table is a rendered experiment result (one paper table or figure).
type Table = experiment.Table

// ExperimentOptions sets the scale of the experiment suite and the width
// of its concurrent cell pool (Jobs; 0 = all cores). Regenerated tables
// are byte-identical at any Jobs width.
type ExperimentOptions = experiment.Options

// IRMBGeometry is an IRMB configuration (bases × offsets).
type IRMBGeometry = core.Geometry

// DefaultMachine returns the paper's Table 2 configuration: 4 GPUs, 64 CUs
// each, 4 KB pages, access-counter migration.
func DefaultMachine() Machine { return config.Default() }

// Scheme constructors, mirroring the paper's evaluation matrix.
var (
	// Baseline is counter-based migration with broadcast invalidations.
	Baseline = config.Baseline
	// OnlyLazy enables just the IRMB (§6.3).
	OnlyLazy = config.OnlyLazy
	// OnlyInPTE enables just the in-PTE directory (§6.2).
	OnlyInPTE = config.OnlyInPTE
	// IDYLL is the full design.
	IDYLL = config.IDYLL
	// IDYLLInMem uses the VM-Table directory (§6.4).
	IDYLLInMem = config.IDYLLInMem
	// ZeroLatency is the free-invalidation ideal.
	ZeroLatency = config.ZeroLatency
	// FirstTouch pins pages where first touched.
	FirstTouch = config.FirstTouchScheme
	// OnTouch migrates on every remote fault.
	OnTouch = config.OnTouchScheme
	// Replication replicates read-shared pages (§7.4).
	Replication = config.ReplicationScheme
	// TransFW is the HPCA'23 comparison point (§7.5).
	TransFW = config.TransFWScheme
	// IDYLLTransFW combines IDYLL with Trans-FW.
	IDYLLTransFW = config.IDYLLTransFW
)

// App returns a Table 3 application (or a §7.6 DNN workload) by
// abbreviation: MT, MM, PR, ST, SC, KM, IM, C2D, BS, VGG16, ResNet18.
func App(abbr string) (Workload, error) { return workload.App(abbr) }

// Apps returns all nine Table 3 applications.
func Apps() []Workload { return workload.Apps() }

// GenerateTrace builds a deterministic multi-GPU trace for a workload.
func GenerateTrace(w Workload, numGPUs, cusPerGPU, accessesPerCU int, seed uint64) *Trace {
	return workload.Generate(w, numGPUs, cusPerGPU, accessesPerCU, seed)
}

// RunConfig tunes a Simulate call. Zero values select sensible defaults.
type RunConfig struct {
	// CUsPerGPU overrides the machine's CU count (0 = machine default).
	CUsPerGPU int
	// AccessesPerCU is the trace length per CU (0 = the suite default).
	AccessesPerCU int
	// Seed is the workload seed (0 = the suite default).
	Seed uint64
	// Check enables the online translation-coherence checker.
	Check bool
}

// Simulate builds a system, generates the workload's trace, runs it to
// completion, and returns the measurements.
func Simulate(m Machine, s Scheme, w Workload, rc RunConfig) (*Stats, error) {
	if rc.CUsPerGPU > 0 {
		m.CUsPerGPU = rc.CUsPerGPU
	}
	def := experiment.DefaultOptions()
	if rc.AccessesPerCU == 0 {
		rc.AccessesPerCU = def.AccessesPerCU
	}
	if rc.Seed == 0 {
		rc.Seed = def.Seed
	}
	// The machine is built from, and released into, a recycler of the
	// experiment runner's free list (see system.NewFrom).
	r := experiment.TakeRecycler()
	defer experiment.PutRecycler(r)
	sys, err := system.NewFrom(r, m, s)
	if err != nil {
		return nil, err
	}
	defer sys.Release()
	sys.CheckTranslations = rc.Check
	trace := workload.Generate(w, m.NumGPUs, m.CUsPerGPU, rc.AccessesPerCU, rc.Seed)
	return sys.Run(trace)
}

// NewSystem assembles a machine without running it, for callers that want
// to drive the simulation directly (custom traces, mid-run inspection). Call
// the System's Release after its last use to let the next one reuse its
// storage; a System never released is simply collected.
func NewSystem(m Machine, s Scheme) (*System, error) { return system.New(m, s) }

// DefaultExperimentOptions is the scale used to regenerate the paper's
// tables and figures (see EXPERIMENTS.md for the calibration notes).
func DefaultExperimentOptions() ExperimentOptions { return experiment.DefaultOptions() }

// Experiment regenerates one paper table or figure by ID ("fig1".."fig24",
// "table2", "table3", "ablation-drain"). The figure's simulation cells run
// concurrently on a pool of o.Jobs workers (0 = all cores) with output
// independent of the pool width.
func Experiment(id string, o ExperimentOptions) (*Table, error) {
	e, err := experiment.Find(id)
	if err != nil {
		return nil, err
	}
	return e.Run(o)
}

// Experiments lists the regenerable experiment IDs with descriptions.
func Experiments() map[string]string {
	out := make(map[string]string)
	for _, e := range experiment.Registry() {
		out[e.ID] = e.Notes
	}
	return out
}
