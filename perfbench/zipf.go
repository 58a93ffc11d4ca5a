package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"idyll"
	"idyll/internal/service"
)

// idylld-zipf: open-loop load at one fixed Poisson rate against a
// coordinator and two workers. Requests draw cell and figure specs from a
// seeded Zipf over a catalogue at small scale.
const (
	zipfCUs      = 1
	zipfAccesses = 50
	zipfWarmup   = 25
	// zipfCellSeeds × 9 apps × 6 schemes plain cells, plus zipfWarmupSeeds ×
	// 9 apps warmup groups of one figure job and six cells sharing warmups:
	// 10620 specs. The long tail keeps first requests (misses) arriving at a
	// nearly steady rate through the run instead of only while the head
	// warms up.
	zipfCellSeeds   = 150
	zipfWarmupSeeds = 40
	zipfExponent    = 1.2
	zipfRate        = 50.0 // requests per second
	fleetSetups     = 11

	hitLimit  = 10 * time.Millisecond
	missLimit = 50 * time.Millisecond
)

var zipfSchemes = []string{"baseline", "lazy", "inpte", "inmem", "idyll", "zero"}

// entry is one catalogue spec with the number of simulated accesses its
// result covers.
type entry struct {
	spec     []byte
	accesses float64
	cell     bool
}

type specOptions struct {
	CUs      int      `json:"cus_per_gpu"`
	Accesses int      `json:"accesses_per_cu"`
	Seed     uint64   `json:"seed"`
	Apps     []string `json:"apps,omitempty"`
	Warmup   int      `json:"warmup_accesses_per_cu,omitempty"`
}

type specWire struct {
	Kind    string      `json:"kind"`
	Figure  string      `json:"figure,omitempty"`
	App     string      `json:"app,omitempty"`
	Scheme  string      `json:"scheme,omitempty"`
	Options specOptions `json:"options"`
}

// catalogue builds the seeded spec catalogue in a seeded random order (the
// Zipf rank). A warmup group is a fig11 figure job restricted to one app
// next to fig11-labelled cells of that app: their content addresses differ
// but their warmup checkpoint keys are shared.
func catalogue(seed uint64) ([]entry, error) {
	gpus := idyll.DefaultMachine().NumGPUs
	perCell := float64(gpus * zipfCUs * zipfAccesses)
	var cat []entry
	add := func(w specWire, accesses float64) error {
		raw, err := json.Marshal(w)
		if err != nil {
			return err
		}
		cat = append(cat, entry{spec: raw, accesses: accesses, cell: w.Kind == "cell"})
		return nil
	}
	apps := idyll.Apps()
	for v := 0; v < zipfCellSeeds; v++ {
		o := specOptions{CUs: zipfCUs, Accesses: zipfAccesses, Seed: inputSeed(seed, 1000+v)}
		for _, a := range apps {
			for _, s := range zipfSchemes {
				if err := add(specWire{Kind: "cell", App: a.Abbr, Scheme: s, Options: o}, perCell); err != nil {
					return nil, err
				}
			}
		}
	}
	for g := 0; g < zipfWarmupSeeds; g++ {
		o := specOptions{CUs: zipfCUs, Accesses: zipfAccesses, Seed: inputSeed(seed, 2000+g), Warmup: zipfWarmup}
		for _, a := range apps {
			fo := o
			fo.Apps = []string{a.Abbr}
			// Figure 11 runs the baseline plus five schemes per app.
			if err := add(specWire{Kind: "figure", Figure: "fig11", Options: fo}, 6*perCell); err != nil {
				return nil, err
			}
			for _, s := range zipfSchemes {
				if err := add(specWire{Kind: "cell", Figure: "fig11", App: a.Abbr, Scheme: s, Options: o}, perCell); err != nil {
					return nil, err
				}
			}
		}
	}
	return stratify(cat, seed), nil
}

// stratify orders the catalogue into Zipf ranks: each kind of spec (plain
// cell, warmup cell, figure job) is shuffled by the seed, and the kinds are
// interleaved in proportion at every rank. The seed then picks which specs
// are hot but not how expensive the hot set is, which would otherwise swing
// every latency from one seed to the next.
func stratify(cat []entry, seed uint64) []entry {
	kinds := map[string][]entry{}
	var order []string
	for _, e := range cat {
		k := entryKind(e)
		if _, ok := kinds[k]; !ok {
			order = append(order, k)
		}
		kinds[k] = append(kinds[k], e)
	}
	rng := seededRand(seed, catalogueStream)
	for _, k := range order {
		l := kinds[k]
		rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
	}
	out := make([]entry, 0, len(cat))
	taken := map[string]int{}
	for r := 1; r <= len(cat); r++ {
		// Take from the kind furthest behind its share of the first r ranks.
		best, deficit := "", -1.0
		for _, k := range order {
			if taken[k] == len(kinds[k]) {
				continue
			}
			d := float64(r*len(kinds[k]))/float64(len(cat)) - float64(taken[k])
			if d > deficit {
				best, deficit = k, d
			}
		}
		out = append(out, kinds[best][taken[best]])
		taken[best]++
	}
	return out
}

func entryKind(e entry) string {
	switch {
	case !e.cell:
		return "figure"
	case bytes.Contains(e.spec, []byte("warmup")):
		return "warmup-cell"
	}
	return "cell"
}

// request is one scheduled submission: when it is due (from the start of
// the load) and which catalogue entry it asks for.
type request struct {
	due   time.Duration
	entry int
}

// schedule draws Poisson arrivals at rate per second over length and a
// Zipf(exponent) catalogue rank for each.
func schedule(seed uint64, entries int, rate float64, length time.Duration, exponent float64) []request {
	rng := seededRand(seed, scheduleStream)
	z := rand.NewZipf(rng, exponent, 1, uint64(entries-1))
	var out []request
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= length {
			return out
		}
		out = append(out, request{due: due, entry: int(z.Uint64())})
	}
}

// record is the outcome of one request.
type record struct {
	req      request
	sent     time.Time
	done     time.Time
	lag      time.Duration
	latency  time.Duration
	st       jobStatus
	err      error
	hit      bool
	coordHit bool
	traced   bool
}

// runLoad sends the schedule open loop: each request starts when it is due,
// whatever is still outstanding, and shares the client's few connections
// with every other request; its latency counts from when it was due. It
// returns once every request has completed.
func runLoad(ctx context.Context, hc *http.Client, base string, cat []entry, reqs []request, t *tracer) ([]record, time.Duration) {
	recs := make([]record, len(reqs))
	var mu sync.Mutex
	completed := map[int]time.Time{} // entry → first completion
	var wg sync.WaitGroup
	start := time.Now()
	send := func(i int) {
		defer wg.Done()
		r := &recs[i]
		r.sent = time.Now()
		due := start.Add(r.req.due)
		r.lag = r.sent.Sub(due)
		mu.Lock()
		first, seen := completed[r.req.entry]
		mu.Unlock()
		r.traced = t.on && i%2 == 0
		tr := t
		if !r.traced {
			tr = &tracer{}
		}
		req := int64(i + 1)
		root := tr.begin("request", 0, req, due)
		r.st, r.err = submitAndWait(ctx, hc, base, cat[r.req.entry].spec, tr, root, req)
		r.done = time.Now()
		r.latency = r.done.Sub(due)
		tr.end(root, r.done)
		if r.err == nil && r.st.Status != "done" {
			r.err = fmt.Errorf("job %s %s: %s", r.st.ID, r.st.Status, r.st.Error)
		}
		r.coordHit = r.st.Cached
		r.hit = r.st.Cached || (seen && first.Before(r.sent))
		if r.err == nil {
			mu.Lock()
			if _, ok := completed[r.req.entry]; !ok {
				completed[r.req.entry] = r.done
			}
			mu.Unlock()
		}
	}
	for i := range reqs {
		if d := time.Until(start.Add(reqs[i].due)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		recs[i].req = reqs[i]
		wg.Add(1)
		go send(i)
	}
	wg.Wait()
	return recs, time.Since(start)
}

// checkRecords verifies every answer. Repeat answers for one spec must be
// byte-identical to each other, and each distinct answer byte-identical to
// running the same canonical spec in process through service.RunSpec.
// Both sides pass through one JSON re-encoding, as the HTTP API applies to
// results it embeds. A failed check becomes the record's error.
func checkRecords(ctx context.Context, cat []entry, recs []record, workers int) {
	firstRaw := map[int][]byte{}
	for i := range recs {
		r := &recs[i]
		if r.err != nil || r.sent.IsZero() {
			continue
		}
		got, err := normalize(r.st.Result)
		if err != nil {
			r.err = err
			continue
		}
		if prev, ok := firstRaw[r.req.entry]; !ok {
			firstRaw[r.req.entry] = got
		} else if !bytes.Equal(prev, got) {
			r.err = fmt.Errorf("entry %d: answer differs from an earlier answer", r.req.entry)
		}
	}
	bad := map[int]error{}
	var mu sync.Mutex
	todo := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range todo {
				err := checkEntry(ctx, cat[idx], firstRaw[idx])
				if err != nil {
					mu.Lock()
					bad[idx] = err
					mu.Unlock()
				}
			}
		}()
	}
	for idx := range firstRaw {
		todo <- idx
	}
	close(todo)
	wg.Wait()
	for i := range recs {
		if err, ok := bad[recs[i].req.entry]; ok && recs[i].err == nil {
			recs[i].err = err
		}
	}
}

func checkEntry(ctx context.Context, e entry, got []byte) error {
	spec, err := service.DecodeSpec(e.spec)
	if err != nil {
		return err
	}
	canon, err := spec.Canonicalize()
	if err != nil {
		return err
	}
	cells := 0
	want, err := service.RunSpec(ctx, canon, func(int, int, string) { cells++ })
	if err != nil {
		return fmt.Errorf("in-process run: %w", err)
	}
	if want, err = normalize(want); err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("answer for %s differs from in-process service.RunSpec", e.spec)
	}
	if !e.cell {
		// A figure job's table carries no access count: it is credited
		// with its cells, each checked like a plain cell when requested.
		if want := len(zipfSchemes); cells != want {
			return fmt.Errorf("figure %s ran %d cells, want %d", e.spec, cells, want)
		}
		return nil
	}
	var c struct {
		Accesses float64 `json:"accesses"`
	}
	if err := json.Unmarshal(got, &c); err != nil || c.Accesses != e.accesses {
		return fmt.Errorf("cell %s covers %.0f accesses, want %.0f", e.spec, c.Accesses, e.accesses)
	}
	return nil
}

// normalize re-encodes a JSON document the way encoding/json embeds a raw
// message: compacted, with HTML-sensitive characters escaped.
func normalize(raw []byte) ([]byte, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("empty result")
	}
	return json.Marshal(json.RawMessage(raw))
}

func runIdylldZipf(ctx context.Context, e *env) (*result, error) {
	hc := newHTTPClient(e.nproc)
	defer hc.CloseIdleConnections()
	res := &result{}
	// Set-up resolves the inputs (the catalogue and the schedule) and
	// launches the fleet: daemons started, healthy and joined. Timing the
	// launch alone left a few milliseconds of process starts whose level
	// drifted by a third between two ten-run series (README.md, "Measured
	// spread").
	var (
		f    *fleet
		cat  []entry
		reqs []request
		err  error
	)
	for i := 0; i < fleetSetups; i++ {
		start := time.Now()
		if cat, err = catalogue(e.seed); err != nil {
			return nil, err
		}
		reqs = schedule(e.seed, len(cat), zipfRate, e.seconds, zipfExponent)
		dir := filepath.Join(e.work, fmt.Sprintf("fleet-%d-%d", os.Getpid(), i))
		fl, err := startFleet(ctx, e.idylld, dir, hc, coordCacheEntries)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(start))
		if i < fleetSetups-1 {
			fl.stop()
		} else {
			f = fl
		}
	}
	defer f.stop()

	recs, window := runLoad(ctx, hc, f.coord.url, cat, reqs, e.spans)
	res.window = window
	res.rssMB = f.peakRSSMB()
	reportKinds(cat, recs)
	var layers map[string]float64
	if e.trace {
		if layers, err = fleetLayers(ctx, hc, f, cat, recs); err != nil {
			return nil, err
		}
	}
	checkRecords(ctx, cat, recs, e.nproc)
	res.ops = recordsToOps(cat, recs)
	if e.trace {
		if err := zipfLayers(ctx, e, cat, layers); err != nil {
			return nil, err
		}
		loadgenLayers(res.ops, layers)
		res.layers = layers
	}
	return res, nil
}

// zipfLayers measures the layers idylld runs in process on the catalogue's
// own inputs: spec hashing and the integrity envelope on the first specs,
// and the checkpoint codec on the first warmup cell.
func zipfLayers(ctx context.Context, e *env, cat []entry, out map[string]float64) error {
	var specs [][]byte
	var warm *specWire
	for _, c := range cat {
		if len(specs) < 54 {
			specs = append(specs, c.spec)
		}
		if warm == nil && entryKind(c) == "warmup-cell" {
			warm = new(specWire)
			if err := json.Unmarshal(c.spec, warm); err != nil {
				return err
			}
		}
	}
	if err := e.spans.timed("probe service", 0, 0, func() error { return serviceLayers(specs, out) }); err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	if warm == nil {
		return fmt.Errorf("the catalogue has no warmup cell")
	}
	if err := e.spans.timed("probe checkpoint", 0, 0, func() error { return checkpointLayers(ctx, *warm, out) }); err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	return nil
}

// reportKinds states, on stderr, how the run's requests split by kind of
// spec and by where their answers came from.
func reportKinds(cat []entry, recs []record) {
	kinds := map[string]int{}
	coord, relay, first := 0, 0, 0
	for _, r := range recs {
		if r.sent.IsZero() {
			continue
		}
		kinds[entryKind(cat[r.req.entry])]++
		switch {
		case r.coordHit:
			coord++
		case r.hit:
			relay++
		default:
			first++
		}
	}
	n := float64(len(recs))
	fmt.Fprintf(os.Stderr, "perfbench: requests: cell %.3f, warmup-cell %.3f, figure %.3f; coordinator hit %.3f, relayed repeat %.3f, first request %.3f\n",
		float64(kinds["cell"])/n, float64(kinds["warmup-cell"])/n, float64(kinds["figure"])/n,
		float64(coord)/n, float64(relay)/n, float64(first)/n)
}

func recordsToOps(cat []entry, recs []record) []op {
	ops := make([]op, 0, len(recs))
	for _, r := range recs {
		if r.sent.IsZero() {
			continue // never sent: the run was interrupted
		}
		o := op{latency: r.latency, lag: r.lag, hit: r.hit, ok: r.err == nil,
			accesses: cat[r.req.entry].accesses, traced: r.traced, limit: missLimit}
		if r.hit {
			o.limit = hitLimit
		}
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", r.req.entry, r.err)
		}
		ops = append(ops, o)
	}
	return ops
}
