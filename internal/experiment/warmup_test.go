package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"idyll/internal/blobstore"
	"idyll/internal/checkpoint"
	"idyll/internal/config"
	"idyll/internal/stats"
	"idyll/internal/workload"
)

// A warmup run forked from the checkpoint store must produce results
// identical to the same run executed straight through.
func TestWarmupStoreMatchesStraightLine(t *testing.T) {
	o := QuickOptions()
	o.WarmupAccessesPerCU = 50
	spec := cell("figA", "PR", config.IDYLL())

	straight, err := runCell(o, spec)
	if err != nil {
		t.Fatal(err)
	}
	st := newCkptStore(t)
	o.CheckpointStore = st
	forked, err := runCell(o, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(straight, forked) {
		t.Fatalf("forked run diverges:\nstraight: %+v\nforked:   %+v", straight, forked)
	}
	if s := st.Stats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("first run: %d hits, %d misses; want 0/1", s.Hits, s.Misses)
	}
	// A second identical run reuses the warmup checkpoint.
	again, err := runCell(o, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(straight, again) {
		t.Fatal("cached-warmup run diverges")
	}
	if s := st.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("second run: %d hits, %d misses; want 1/1", s.Hits, s.Misses)
	}
}

// Different schemes share nothing: the warmup state depends on the scheme, so
// each gets its own checkpoint.
func TestWarmupKeySeparatesSchemes(t *testing.T) {
	o := QuickOptions()
	m := config.Default()
	m.CUsPerGPU = o.CUsPerGPU
	trace := workload.Generate(mustApp(t, "PR"), m.NumGPUs, m.CUsPerGPU, o.AccessesPerCU, o.Seed)
	a := WarmupKey(m, config.Baseline(), 50, trace)
	b := WarmupKey(m, config.IDYLL(), 50, trace)
	c := WarmupKey(m, config.IDYLL(), 60, trace)
	if a == b || b == c || a == c {
		t.Fatalf("warmup keys collide: %s %s %s", a, b, c)
	}
	if b != WarmupKey(m, config.IDYLL(), 50, trace) {
		t.Fatal("warmup key is not deterministic")
	}
}

// ThresholdFactor scales the access-counter threshold at run time but is not
// carried by tracefile.Save, so the key must separate traces differing only
// in it.
func TestWarmupKeyIncludesThresholdFactor(t *testing.T) {
	o := QuickOptions()
	m := config.Default()
	m.CUsPerGPU = o.CUsPerGPU
	p := mustApp(t, "PR")
	t1 := workload.Generate(p, m.NumGPUs, m.CUsPerGPU, o.AccessesPerCU, o.Seed)
	t2 := workload.Generate(p, m.NumGPUs, m.CUsPerGPU, o.AccessesPerCU, o.Seed)
	t2.Params.ThresholdFactor = 4
	if WarmupKey(m, config.IDYLL(), 50, t1) == WarmupKey(m, config.IDYLL(), 50, t2) {
		t.Fatal("keys collide across ThresholdFactor values")
	}
}

// The default (no warmup) must encode to the exact canonical bytes of the
// pre-warmup format, preserving every existing content-addressed result.
func TestCanonicalJSONOmitsZeroWarmup(t *testing.T) {
	raw, err := DefaultOptions().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("warmup")) {
		t.Fatalf("zero warmup leaked into canonical JSON: %s", raw)
	}
	o := DefaultOptions()
	o.WarmupAccessesPerCU = 100
	raw, err = o.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"warmup_accesses_per_cu":100`)) {
		t.Fatalf("warmup missing from canonical JSON: %s", raw)
	}
	back, err := OptionsFromCanonicalJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.WarmupAccessesPerCU != 100 {
		t.Fatalf("round-trip lost warmup: %+v", back)
	}
}

// A checkpoint that verifies at the store level but fails to decode (poison
// bytes) must cost a recompute, never the job: the bad entry is quarantined,
// the warmup recomputed, and the results stay identical to a clean run.
func TestCorruptCheckpointRecoversAndMatches(t *testing.T) {
	o := QuickOptions()
	o.WarmupAccessesPerCU = 50
	spec := cell("figA", "PR", config.IDYLL())

	st := newCkptStore(t)
	o.CheckpointStore = st
	clean, err := runCell(o, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Reconstruct the key exactly as the runner derives it.
	p, err := planCell(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	key := WarmupKey(p.m, spec.Scheme, o.WarmupAccessesPerCU, p.trace())
	if _, ok := st.Get(key); !ok {
		t.Fatal("reconstructed warmup key not in store; test setup is wrong")
	}

	// Poison the stored checkpoint with bytes Resume cannot decode.
	st.Put(key, []byte("not a checkpoint"))

	again, err := runCell(o, spec)
	if err != nil {
		t.Fatalf("run with poisoned checkpoint failed instead of recovering: %v", err)
	}
	if !reflect.DeepEqual(clean, again) {
		t.Fatal("recovered run diverges from the clean run")
	}
	if q := st.Stats().Quarantined; q < 1 {
		t.Fatalf("quarantined = %d, want >= 1", q)
	}
	// The recompute repaired the store in place.
	if blob, ok := st.Get(key); !ok || len(blob) <= len("not a checkpoint") {
		t.Fatalf("store not repaired: ok=%v len=%d", ok, len(blob))
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

func newCkptStore(t *testing.T) *blobstore.Store {
	t.Helper()
	st, err := blobstore.New("ckpt", 8, "")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustApp(t *testing.T, abbr string) workload.Params {
	t.Helper()
	p, err := workload.App(abbr)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// formulaKey is the warmup key computed the way WarmupKey always has, with
// the trace streamed through Save into the hash for every cell.
func formulaKey(t *testing.T, m config.Machine, scheme config.Scheme, warmup int, trace *workload.Trace) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "ckpt-v%d\n", checkpoint.Version)
	fmt.Fprintf(h, "machine %#v\n", m)
	fmt.Fprintf(h, "scheme %#v\n", scheme)
	fmt.Fprintf(h, "warmup %d\n", warmup)
	fmt.Fprintf(h, "params %#v\n", trace.Params)
	if err := trace.Save(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// A pass encodes each trace once and hashes the encoding for every cell's
// warmup key. The keys must equal the formula's byte for byte, or existing
// checkpoint stores would stop hitting: checked on every fig11 cell at quick
// scale with a 100-access warmup.
func TestSharedWarmupKeyMatchesFormula(t *testing.T) {
	defer func() { runPass = RunCells }()
	errCaptured := errors.New("captured")
	var specs []CellSpec
	runPass = func(o Options, s []CellSpec) ([]*stats.Sim, error) {
		specs = append(specs, s...)
		return nil, errCaptured
	}
	o := QuickOptions()
	o.WarmupAccessesPerCU = 100
	if _, err := Figure11(o); !errors.Is(err, errCaptured) {
		t.Fatalf("Figure11: %v", err)
	}
	if len(specs) != 54 {
		t.Fatalf("fig11 planned %d cells, want 54", len(specs))
	}
	traces := map[traceKey]*sharedTrace{}
	for _, spec := range specs {
		p, err := planCell(spec, o)
		if err != nil {
			t.Fatal(err)
		}
		sh := traces[p.key]
		if sh == nil {
			sh = &sharedTrace{trace: p.trace()}
			traces[p.key] = sh
		}
		want := formulaKey(t, p.m, spec.Scheme, o.WarmupAccessesPerCU, sh.trace)
		if got := sh.warmupKey(p.m, spec.Scheme, o.WarmupAccessesPerCU); got != want {
			t.Errorf("%s/%s: shared-trace key %s, formula %s", spec.App, spec.Scheme.Name, got, want)
		}
		if got := WarmupKey(p.m, spec.Scheme, o.WarmupAccessesPerCU, sh.trace); got != want {
			t.Errorf("%s/%s: WarmupKey %s, formula %s", spec.App, spec.Scheme.Name, got, want)
		}
	}
	if len(traces) != 9 {
		t.Fatalf("fig11 replays %d traces, want 9", len(traces))
	}
}
