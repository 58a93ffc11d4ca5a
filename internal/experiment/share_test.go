package experiment

import (
	"crypto/sha256"
	"encoding/json"
	"testing"

	"idyll/internal/config"
	"idyll/internal/memdef"
	"idyll/internal/stats"
	"idyll/internal/workload"
)

// runSolo runs every spec in a RunCells pass of its own, so each cell builds
// its own trace and placement: the reference a shared pass must match.
func runSolo(o Options, specs []CellSpec) ([]*stats.Sim, error) {
	out := make([]*stats.Sim, len(specs))
	for i, spec := range specs {
		res, err := RunCells(o, []CellSpec{spec})
		if err != nil {
			return nil, err
		}
		out[i] = res[0]
	}
	return out, nil
}

// shareModes are the execution modes a shared pass must be exact under: a
// serial and a concurrent pool, and the two-phase warmup run.
func shareModes() map[string]func() Options {
	return map[string]func() Options{
		"jobs1": func() Options { o := QuickOptions(); o.Jobs = 1; return o },
		"jobs4": func() Options { o := QuickOptions(); o.Jobs = 4; return o },
		"warmup": func() Options {
			o := QuickOptions()
			o.Jobs = 4
			o.WarmupAccessesPerCU = 100
			return o
		},
	}
}

// TestSharedTraceFiguresMatchSoloCells renders fig11 and fig21 with each
// pass's traces and placements shared across its cells, and with every cell
// in a pass of its own, and requires byte-identical tables. fig21 runs on
// 2 MB pages, where a placement computed at the wrong page size would move
// every result.
func TestSharedTraceFiguresMatchSoloCells(t *testing.T) {
	defer func() { runPass = RunCells }()
	for _, fig := range []string{"fig11", "fig21"} {
		e, err := Find(fig)
		if err != nil {
			t.Fatal(err)
		}
		for mode, opts := range shareModes() {
			runPass = RunCells
			shared, err := e.Run(opts())
			if err != nil {
				t.Fatalf("%s %s shared: %v", fig, mode, err)
			}
			runPass = runSolo
			solo, err := e.Run(opts())
			if err != nil {
				t.Fatalf("%s %s solo: %v", fig, mode, err)
			}
			if shared.Render() != solo.Render() {
				t.Fatalf("%s %s: shared pass differs from one cell per pass:\n--- shared\n%s--- solo\n%s",
					fig, mode, shared.Render(), solo.Render())
			}
		}
	}
}

// traceHash is the SHA-256 of a trace's saved form.
func traceHash(t *testing.T, tr *workload.Trace) [32]byte {
	h := sha256.New()
	if err := tr.Save(h); err != nil {
		t.Fatal(err)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// TestSharedGivenTracesMatchSoloCells runs given traces the way
// `idylltrace run -scheme all` does — every scheme a cell on one trace —
// plus fig11's matrix over pre-generated traces and a 2 MB-page machine on
// the same trace pointers, so one trace is placed at two page sizes in one
// pass. Every cell's stats must equal its solo run's, and no trace may
// change.
func TestSharedGivenTracesMatchSoloCells(t *testing.T) {
	q := QuickOptions()
	var traces []*workload.Trace
	for _, abbr := range []string{"PR", "KM"} {
		app, err := workload.App(abbr)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, workload.Generate(app, config.Default().NumGPUs,
			q.CUsPerGPU, q.AccessesPerCU, CellSeed(q.Seed, "fig11", abbr)))
	}
	before := make([][32]byte, len(traces))
	for i, tr := range traces {
		before[i] = traceHash(t, tr)
	}
	big := config.Default()
	big.PageSize = memdef.Page2M
	big.MigrationBlockPages = 1
	var specs []CellSpec
	for _, tr := range traces {
		for _, name := range config.SchemeNames() {
			s, err := config.SchemeByName(name)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, CellSpec{Figure: "trace", App: tr.Params.Abbr,
				Machine: config.Default(), Scheme: s, Trace: tr})
		}
		for _, s := range []config.Scheme{config.Baseline(), config.IDYLL()} {
			specs = append(specs, CellSpec{Figure: "trace", App: tr.Params.Abbr,
				Machine: big, Scheme: s, Trace: tr})
		}
	}
	for mode, opts := range shareModes() {
		shared, err := RunCells(opts(), specs)
		if err != nil {
			t.Fatalf("%s shared: %v", mode, err)
		}
		solo, err := runSolo(opts(), specs)
		if err != nil {
			t.Fatalf("%s solo: %v", mode, err)
		}
		for i := range specs {
			a, _ := json.Marshal(shared[i])
			b, _ := json.Marshal(solo[i])
			if string(a) != string(b) {
				t.Fatalf("%s: cell %d (%s/%s, %d-byte pages) differs from its solo run",
					mode, i, specs[i].App, specs[i].Scheme.Name, specs[i].Machine.PageSize)
			}
		}
		for i, tr := range traces {
			if traceHash(t, tr) != before[i] {
				t.Fatalf("%s: the pass modified shared trace %s", mode, tr.Params.Abbr)
			}
		}
	}
}
