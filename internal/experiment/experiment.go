// Package experiment regenerates every table and figure of the paper's
// evaluation (§2, §5, §7). Each FigureNN function runs the required
// (scheme × application) matrix on the simulator and returns a Table whose
// rows mirror the paper's plots: one row per application plus the "Ave."
// column the paper reports.
//
// Scale: the paper simulates full application runs on MGPUSim; we run
// calibrated synthetic traces (see internal/workload). Every figure is a
// ratio normalized to a baseline run of the same trace, which is robust to
// trace length. Scale (CUs per GPU, accesses per CU) is set by Options.
package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"idyll/internal/workload"
)

// Options sets the execution scale of the experiment suite. The fields
// with a JSON name are the result identity, in their canonical-JSON field
// order (see CanonicalJSON); the `json:"-"` fields steer execution, never
// results (the determinism guarantee — see runner.go), so two submissions
// differing only in them hash identically.
type Options struct {
	// CUsPerGPU scales each GPU's compute (Table 2 machine: 64; the default
	// experiment scale uses fewer so the full suite regenerates quickly —
	// contention ratios are preserved because walker/TLB geometry is
	// unchanged and trace pressure is set per CU).
	CUsPerGPU int `json:"cus_per_gpu"`
	// AccessesPerCU is the trace length per CU.
	AccessesPerCU int `json:"accesses_per_cu"`
	// Seed makes the whole suite deterministic.
	Seed uint64 `json:"seed"`
	// Apps restricts the application list (nil = all of Table 3).
	Apps []string `json:"apps,omitempty"`
	// CounterThreshold is the access-counter threshold applied during the
	// suite, expressed in the paper's units scaled by TraceScaleFactor:
	// the paper's 256 divided by the factor. Our traces are ~128× shorter
	// per hot page than the full application runs the paper simulates, so
	// a threshold of 2 reproduces the paper's migrations-per-kiloaccess
	// regime at default scale (see EXPERIMENTS.md "Calibration").
	CounterThreshold int `json:"counter_threshold"`
	// Jobs bounds how many simulation cells run concurrently
	// (0 = runtime.GOMAXPROCS(0)). Results are independent of Jobs: every
	// cell seeds its trace from (Seed, figure, app) alone — see CellSeed —
	// so Jobs=1 and Jobs=N render byte-identical tables.
	Jobs int `json:"-"`
	// WarmupAccessesPerCU, when positive, splits every run into two phases:
	// each CU executes its first WarmupAccessesPerCU accesses, the system
	// drains to a barrier, and the remainder runs from there. The drain
	// barrier is part of the simulated schedule, so this is a *semantic*
	// parameter — results at W>0 differ from W=0 — and it is part of result
	// identity. It is omitted from the canonical JSON when zero, so the
	// default encodes to the same bytes as before the field existed and
	// every earlier content address stays valid.
	WarmupAccessesPerCU int `json:"warmup_accesses_per_cu,omitempty"`
	// Progress, when non-nil, is called after each cell a runner pass
	// completes, with the finished count, the pass total, and a
	// "figure app/scheme" label. Calls are serialized, never concurrent.
	Progress func(done, total int, cell string) `json:"-"`

	// ctx, when non-nil, cancels runs cooperatively: the event loop stops
	// between batches and RunCells stops dispatching cells. Set through
	// WithContext so the zero Options value stays valid.
	ctx context.Context
}

// WithContext returns a copy of o whose runs are cancellable through ctx:
// RunCells and every figure return ctx.Err() once it is done, and in-flight
// cells stop at the next event-loop batch boundary. Cancellation
// never perturbs results — a run either completes identically or errors.
func (o Options) WithContext(ctx context.Context) Options {
	o.ctx = ctx
	return o
}

// Context returns the options' cancellation context (never nil).
func (o Options) Context() context.Context {
	if o.ctx == nil {
		return context.Background()
	}
	return o.ctx
}

// TraceScaleFactor is the trace-length scaling between the paper's full
// application runs and this suite's calibrated traces; the access-counter
// threshold is divided by it so migration *rates* match the paper's regime.
const TraceScaleFactor = 128

// DefaultOptions is the scale used by cmd/idyllbench and the benchmarks.
func DefaultOptions() Options {
	return Options{CUsPerGPU: 16, AccessesPerCU: 600, Seed: 20231028,
		CounterThreshold: 256 / TraceScaleFactor}
}

// QuickOptions is a reduced scale for tests.
func QuickOptions() Options {
	o := DefaultOptions()
	o.CUsPerGPU, o.AccessesPerCU = 4, 200
	return o
}

func (o Options) apps() []string {
	if len(o.Apps) > 0 {
		return o.Apps
	}
	return workload.AppAbbrs()
}

// Table is a named grid of results: one row per series (scheme), one column
// per application, plus a geometric-mean "Ave." column (the paper reports
// averages over normalized performance).
type Table struct {
	Title   string
	Caption string
	Columns []string
	Rows    []Row
}

// Row is one series of a table.
type Row struct {
	Label  string
	Values []float64
}

// AddRow appends a series.
func (t *Table) AddRow(label string, values []float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// Mean returns the arithmetic mean of a row's values (the paper's "Ave.").
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Get returns the value at (rowLabel, column), or an error.
func (t *Table) Get(rowLabel, column string) (float64, error) {
	col := -1
	for i, c := range t.Columns {
		if c == column {
			col = i
			break
		}
	}
	if col < 0 {
		return 0, fmt.Errorf("experiment: no column %q in %s", column, t.Title)
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel {
			if col >= len(r.Values) {
				return 0, fmt.Errorf("experiment: row %q too short", rowLabel)
			}
			return r.Values[col], nil
		}
	}
	return 0, fmt.Errorf("experiment: no row %q in %s", rowLabel, t.Title)
}

// Render prints the table in the paper's row/column layout.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	width := 12
	for _, r := range t.Rows {
		if len(r.Label) > width {
			width = len(r.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s", width+2, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%16s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", width+2, r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%16.3f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// sortedKeys is a small helper for deterministic map iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
