package experiment

import (
	"strings"
	"testing"

	"idyll/internal/config"
	"idyll/internal/memdef"
	"idyll/internal/stats"
	"idyll/internal/workload"
)

// quick returns test-scale options over a reduced app set so the whole
// figure suite smoke-tests in seconds.
func quick() Options {
	o := QuickOptions()
	o.Apps = []string{"PR", "KM"}
	return o
}

// cell returns the spec of one (figure, app) cell on the default machine.
func cell(fig, app string, s config.Scheme) CellSpec {
	return CellSpec{Figure: fig, App: app, Machine: config.Default(), Scheme: s}
}

func TestRunProducesStats(t *testing.T) {
	res, err := RunCells(quick(), []CellSpec{cell("figA", "PR", config.Baseline())})
	if err != nil {
		t.Fatal(err)
	}
	if st := res[0]; st.ExecCycles == 0 || st.Accesses == 0 {
		t.Fatal("empty run")
	}
}

func TestRunUnknownApp(t *testing.T) {
	if _, err := RunCells(quick(), []CellSpec{cell("figA", "nope", config.Baseline())}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestTableGetAndRender(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"A", "B"}}
	tab.AddRow("row", []float64{1.5, 2.5})
	v, err := tab.Get("row", "B")
	if err != nil || v != 2.5 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	if _, err := tab.Get("row", "C"); err == nil {
		t.Fatal("missing column accepted")
	}
	if _, err := tab.Get("nope", "A"); err == nil {
		t.Fatal("missing row accepted")
	}
	out := tab.Render()
	for _, want := range []string{"T", "row", "1.500", "2.500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render %q missing %q", out, want)
		}
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean wrong")
	}
}

func TestRegistryCoversEveryEvaluationFigure(t *testing.T) {
	want := []string{
		"fig1", "fig2", "table2", "table3", "fig4", "fig5", "fig6", "fig7",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24",
	}
	have := map[string]bool{}
	for _, e := range Registry() {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("registry missing %s", id)
		}
	}
	if _, err := Find("fig11"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("fig99"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// Run every registry entry at quick scale and assert a non-empty,
// well-formed table: the exact row count the paper's plot has, one column
// per application plus "Ave." (or the entry's documented exception), every
// row exactly as wide as the column list, every value finite and
// non-negative. Subtests run in parallel with a 2-wide cell pool each, so
// under -race this doubles as the shared-state regression test for the
// concurrent runner.
func TestRegistryEveryEntryWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure suite in -short mode")
	}
	o := quick()
	o.Jobs = 2
	nApps := len(o.Apps)
	// Rows per entry (the series count of the paper's plot); columns default
	// to one per app plus "Ave.".
	wantRows := map[string]int{
		"fig1": 1, "fig2": 3, "table2": 15, "table3": 2, "fig4": 4,
		"fig5": 3, "fig6": 3, "fig7": 3, "fig11": 5, "fig12": 1,
		"fig13": 2, "fig14": 1, "fig15": 5, "fig16": 2, "fig17": 1,
		"fig18": 2, "fig19": 3, "fig20": 3, "fig21": 1, "fig22": 1,
		"fig23": 3, "fig24": 1, "ablation-drain": 2,
	}
	wantCols := map[string]int{
		"fig1":   len(workload.Fig1Abbrs()) + 1, // fixed motivation-study app set
		"table2": 1,                             // single "value" column
		"fig24":  len(workload.DNNApps()) + 1,   // DNN workloads, not Table 3 apps
	}
	entries := Registry()
	if len(entries) != len(wantRows) {
		t.Fatalf("registry has %d entries, shape table has %d — update the test",
			len(entries), len(wantRows))
	}
	for _, e := range entries {
		e := e
		rows, ok := wantRows[e.ID]
		if !ok {
			t.Fatalf("no expected shape for %s — update the test", e.ID)
		}
		cols := nApps + 1
		if c, ok := wantCols[e.ID]; ok {
			cols = c
		}
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tab, err := e.Run(o)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tab.Rows) != rows {
				t.Errorf("%s: %d rows, want %d", e.ID, len(tab.Rows), rows)
			}
			if len(tab.Columns) != cols {
				t.Errorf("%s: %d columns, want %d", e.ID, len(tab.Columns), cols)
			}
			if tab.Title == "" {
				t.Errorf("%s: empty title", e.ID)
			}
			for _, r := range tab.Rows {
				if len(r.Values) != len(tab.Columns) {
					t.Errorf("%s row %q: %d values for %d columns",
						e.ID, r.Label, len(r.Values), len(tab.Columns))
				}
				for _, v := range r.Values {
					if v != v || v < 0 { // NaN or negative
						t.Errorf("%s row %q: bad value %v", e.ID, r.Label, v)
					}
				}
			}
		})
	}
}

// The headline number: IDYLL must beat baseline on average, and the full
// design must beat each mechanism alone (complementarity, §7.1).
func TestFigure11HeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("headline check in -short mode")
	}
	o := DefaultOptions()
	o.Apps = []string{"PR", "KM", "IM"}
	o.CUsPerGPU = 8
	o.AccessesPerCU = 400
	tab, err := Figure11(o)
	if err != nil {
		t.Fatal(err)
	}
	idyll, _ := tab.Get("IDYLL", "Ave.")
	lazy, _ := tab.Get("Only Lazy", "Ave.")
	inpte, _ := tab.Get("Only In-PTE Directory", "Ave.")
	if idyll < 1.2 {
		t.Fatalf("IDYLL average speedup %.2f, want ≥1.2", idyll)
	}
	if idyll <= lazy || idyll <= inpte {
		t.Fatalf("IDYLL (%.2f) should beat Only Lazy (%.2f) and Only In-PTE (%.2f)",
			idyll, lazy, inpte)
	}
	// The paper observes the combined gain is *roughly* the parts' gains
	// overlapping (complementarity); at reduced scale the exact inequality
	// is noisy, so only log it.
	t.Logf("gains: IDYLL %.2f, Only Lazy %.2f, Only In-PTE %.2f", idyll-1, lazy-1, inpte-1)
}

func TestFigure20ThresholdRelationship(t *testing.T) {
	if testing.Short() {
		t.Skip("threshold study in -short mode")
	}
	o := DefaultOptions()
	o.Apps = []string{"PR", "KM"}
	o.CUsPerGPU = 8
	o.AccessesPerCU = 400
	tab, err := Figure20(o)
	if err != nil {
		t.Fatal(err)
	}
	i256, _ := tab.Get("256 IDYLL", "Ave.")
	b512, _ := tab.Get("512 baseline", "Ave.")
	i512, _ := tab.Get("512 IDYLL", "Ave.")
	if i512 <= b512 {
		t.Fatalf("IDYLL-512 (%.2f) should beat baseline-512 (%.2f)", i512, b512)
	}
	// §7.2: the improvement at 512 is smaller than at 256.
	if i512/b512 >= i256 {
		t.Logf("note: 512 improvement %.2f not below 256 improvement %.2f (scale-sensitive)",
			i512/b512, i256)
	}
}

// Figure 4 simulates no cells: each column is the sharing distribution of
// the trace the app's baseline cell replays, its 4 KB pages on 4 GPUs.
func TestFigure4ComputedFromTraces(t *testing.T) {
	defer func() { runPass = RunCells }()
	runPass = func(Options, []CellSpec) ([]*stats.Sim, error) {
		t.Fatal("Figure 4 dispatched simulation cells")
		return nil, nil
	}
	o := quick()
	tab, err := Figure4(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, abbr := range o.Apps {
		app, err := workload.App(abbr)
		if err != nil {
			t.Fatal(err)
		}
		tr := workload.Generate(app, 4, o.CUsPerGPU, o.AccessesPerCU, CellSeed(o.Seed, "fig4", abbr))
		dist := tr.Sharing(memdef.Page4K).AccessDistribution(4)
		for k, row := range tab.Rows {
			if got, _ := tab.Get(row.Label, abbr); got != dist[k+1] {
				t.Errorf("%s %q = %v, want %v", abbr, row.Label, got, dist[k+1])
			}
		}
	}
}
