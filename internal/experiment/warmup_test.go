package experiment

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"idyll/internal/blobstore"
	"idyll/internal/config"
	"idyll/internal/stats"
	"idyll/internal/workload"
)

// A warmup run forked from the checkpoint store must produce results
// identical to the same run executed straight through, under every scheme:
// each scheme's warmup runs under that scheme, so each has its own
// checkpoint and its own components' state to save and restore. A second
// pass reuses the stored checkpoints, and a store reopened over the same
// directory (a restarted process) forks every cell from disk alone.
func TestWarmupStoreMatchesStraightLine(t *testing.T) {
	o := QuickOptions()
	o.WarmupAccessesPerCU = 50
	var specs []CellSpec
	for _, name := range config.SchemeNames() {
		s, err := config.SchemeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, cell("figA", "PR", s))
	}
	n := uint64(len(specs))
	straight, err := RunCells(o, specs)
	if err != nil {
		t.Fatal(err)
	}
	check := func(pass string, st *blobstore.Store, hits, misses, diskHits uint64) {
		t.Helper()
		o.CheckpointStore = st
		forked, err := RunCells(o, specs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			if !reflect.DeepEqual(straight[i], forked[i]) {
				t.Fatalf("%s: %s diverges:\nstraight: %+v\nforked:   %+v",
					pass, specs[i].Scheme.Name, straight[i], forked[i])
			}
		}
		if s := st.Stats(); s.Hits != hits || s.Misses != misses || s.DiskHits != diskHits {
			t.Fatalf("%s: %d hits (%d from disk), %d misses; want %d (%d)/%d",
				pass, s.Hits, s.DiskHits, s.Misses, hits, diskHits, misses)
		}
	}
	dir := t.TempDir()
	st := newCkptStore(t, dir)
	check("cold", st, 0, n, 0)
	check("cached", st, n, n, 0)
	check("disk warm start", newCkptStore(t, dir), n, 0, n)
}

// Different schemes share nothing: the warmup state depends on the scheme, so
// each gets its own checkpoint.
func TestWarmupKeySeparatesSchemes(t *testing.T) {
	o := QuickOptions()
	m := config.Default()
	m.CUsPerGPU = o.CUsPerGPU
	trace := workload.Generate(mustApp(t, "PR"), m.NumGPUs, m.CUsPerGPU, o.AccessesPerCU, o.Seed)
	sh := &sharedTrace{trace: trace}
	a := sh.warmupKey(m, config.Baseline(), 50)
	b := sh.warmupKey(m, config.IDYLL(), 50)
	c := sh.warmupKey(m, config.IDYLL(), 60)
	if a == b || b == c || a == c {
		t.Fatalf("warmup keys collide: %s %s %s", a, b, c)
	}
	if b != sh.warmupKey(m, config.IDYLL(), 50) {
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
	k1 := (&sharedTrace{trace: t1}).warmupKey(m, config.IDYLL(), 50)
	if k1 == (&sharedTrace{trace: t2}).warmupKey(m, config.IDYLL(), 50) {
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

	st := newCkptStore(t, "")
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
	key := (&sharedTrace{trace: p.trace()}).warmupKey(p.m, spec.Scheme, o.WarmupAccessesPerCU)
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

// newCkptStore returns a checkpoint store with room for every scheme's
// checkpoint, persisted to dir unless dir is empty.
func newCkptStore(t *testing.T, dir string) *blobstore.Store {
	t.Helper()
	st, err := blobstore.New("ckpt", 16, dir)
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

// The warmup keys of every scheme, and of a non-default IRMB geometry, on
// one quick-scale trace, as stored checkpoints are keyed: a change here
// makes every existing checkpoint store miss.
func TestWarmupKeyGolden(t *testing.T) {
	// warmupKey hashes these Scheme fields by name; a field it does not
	// name would let schemes differing only in it share a checkpoint.
	var fields []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(config.Scheme{})) {
		fields = append(fields, f.Name)
	}
	if want := "Name Policy Directory IRMB UnusedBits ZeroLatencyInval TransFW NoIdleDrain"; strings.Join(fields, " ") != want {
		t.Fatalf("config.Scheme fields are %v, warmupKey hashes %s", fields, want)
	}
	o := QuickOptions()
	m := config.Default()
	m.CUsPerGPU = o.CUsPerGPU
	sh := &sharedTrace{trace: workload.Generate(mustApp(t, "PR"), m.NumGPUs, m.CUsPerGPU, o.AccessesPerCU, o.Seed)}
	want := map[string]string{
		"baseline":      "1636fcc597824a2458de39f8dcc56806ecd98bb8f4eabe8de0f12dcc97a0b8cc",
		"lazy":          "28bad182baf9b298837bd24f36fc87f79b5d929fb720fb15411b1324314e63a0",
		"inpte":         "3489f780f63f7df640b3606aadba1e9dbd3162f003f59a68af8c7125d418e97e",
		"idyll":         "29c4f4509624c7e92d0cd52951d4cffad490b07bab2951e9d1f1ef0629aa1969",
		"inmem":         "60be3b35515398573e0df09feb1275f4335fc77aee647f7272ffda5eb0366511",
		"zero":          "6e8835881b3d991f7b2bd26b099092d2a88b04eeeea528f49715e8cf439a8621",
		"first-touch":   "9c34ad6669cc1e2671480756db165991526c36914dbe2e9e8925895a3dd78931",
		"on-touch":      "7866d21be3e743cbeea776affb3e0547b5d8e44c06570d20723cd2696d2d4be6",
		"replication":   "2593ccba7a27e0824fac560f098f273882292d2953609370c91c3339f0f56d37",
		"transfw":       "ebabfdd07ac67e99413c7e087444e884918080f8613c6721cdd7231abde21f5d",
		"idyll+transfw": "9369355176520f15b0e99c0d9f83a29806b8115081c345942241ea931df04bc2",
	}
	for _, name := range config.SchemeNames() {
		s, err := config.SchemeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := sh.warmupKey(m, s, 50); got != want[name] {
			t.Errorf("%s: warmup key %s, want %s", name, got, want[name])
		}
	}
	fig15 := config.IDYLL()
	fig15.IRMB.Bases = 16
	if got, want := sh.warmupKey(m, fig15, 50), "d58daef61b3dd439e09b70397e2932636a1089685018acb7aa1831564f251ff2"; got != want {
		t.Errorf("IDYLL (16,16): warmup key %s, want %s", got, want)
	}
}

// A pass encodes each trace once and hashes the encoding for every cell's
// warmup key. The keys must equal those of a trace encoded for the one
// cell alone, or cells would fork from the wrong checkpoints: checked on
// every fig11 cell at quick scale with a 100-access warmup.
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
		want := (&sharedTrace{trace: sh.trace}).warmupKey(p.m, spec.Scheme, o.WarmupAccessesPerCU)
		if got := sh.warmupKey(p.m, spec.Scheme, o.WarmupAccessesPerCU); got != want {
			t.Errorf("%s/%s: shared-trace key %s, single-cell key %s", spec.App, spec.Scheme.Name, got, want)
		}
	}
	if len(traces) != 9 {
		t.Fatalf("fig11 replays %d traces, want 9", len(traces))
	}
}
