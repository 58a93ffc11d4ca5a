// Command perfbench is the repository benchmark. It runs one workload for a
// fixed time, checks every output, and prints one JSON line with the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1):
//
//	bash perfbench/run.sh --workload fig11-suite --seed 1 --seconds 15 --trace 0
//
// The workloads, metrics and the layer map are described in README.md. The
// benchmark treats every layer as a black box: host times come from timing
// its own calls into exported functions, counts from the system's public
// outputs (stats.Sim, the pdes cluster statistics, idylld's /metrics).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// env is what every workload receives: the generated-input seed, the
// measurement length, and where the built daemon and scratch space live.
type env struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	idylld  string
	work    string
	nproc   int
	spans   *tracer
}

// op is one timed operation of a workload's main loop.
type op struct {
	latency  time.Duration // from when it was due to when its result arrived
	lag      time.Duration // how late the load generator sent it
	hit      bool          // asked for a result produced earlier in the run (see README)
	ok       bool          // completed and passed its output check
	accesses float64       // simulated accesses its result covers
	limit    time.Duration
	traced   bool // spans were recorded around it (traced runs alternate)
	probe    bool // a traced run's layer-probe check, not part of the load
}

// result is everything one run measured.
type result struct {
	setups []time.Duration
	window time.Duration
	ops    []op
	rssMB  float64
	layers map[string]float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(context.Context, *env) (*result, error){
	"fig11-suite":    runFig11Suite,
	"scaleout-16gpu": runScaleout,
	"idylld-zipf":    runIdylldZipf,
}

func main() {
	sut := flag.String("sut", "", "internal: serve a simulator workload's operations on stdin/stdout")
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input-generation seed")
	seconds := flag.Int("seconds", 15, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	idylld := flag.String("idylld", "", "path to the built idylld binary")
	work := flag.String("work", ".bench_build", "scratch directory for daemons and spans")
	flag.Parse()

	if *sut != "" {
		if err := sutMain(*sut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench sut:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %v)\n", *workload, names)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		idylld:  *idylld,
		work:    *work,
		nproc:   runtime.NumCPU(),
		spans:   newTracer(*trace == 1),
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := summarize(res, e.trace)
	if e.trace {
		path, err := e.spans.write(e.work, *workload, e.seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", e.spans.len(), path)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// summarize turns a run into the printed line: end-to-end metrics for an
// untraced run, the per-layer metrics for a traced one.
func summarize(r *result, traced bool) output {
	out := output{Attempted: len(r.ops), Metrics: map[string]metric{}}
	for _, o := range r.ops {
		if !o.ok {
			out.Failed++
		}
	}
	out.Correct = out.Failed == 0
	if traced {
		_, hits, misses := latencies(r.ops)
		r.layers["bench.hit_ms_p99"] = percentile(hits, 99)
		r.layers["bench.miss_ms_p50"] = percentile(misses, 50)
		r.layers["bench.miss_ms_p90"] = percentile(misses, 90)
		// A layer the workload does not reach reads 0.
		for name, unit := range layerUnits {
			out.Metrics[name] = metric{r.layers[name], unit}
		}
		return out
	}
	for name, m := range endToEnd(r) {
		out.Metrics[name] = m
	}
	return out
}

// endToEnd computes the user-visible metrics from a run's operations. The
// same definitions apply to every workload (README.md, "End-to-end metrics").
//
// The hit p99 and the miss p50 and p90 are reported only by traced runs
// (bench.*): across ten seeds on a two-vCPU host their spread exceeded the
// largest regression bound a metric may carry (README.md, "Measured
// spread").
func endToEnd(r *result) map[string]metric {
	all, hits, misses := latencies(r.ops)
	reportSamples("hit", hits)
	reportSamples("miss", misses)
	var accesses, failed float64
	within := 0
	for _, o := range r.ops {
		if !o.ok {
			failed++
			continue
		}
		accesses += o.accesses
		if o.latency <= o.limit {
			within++
		}
	}
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	fmt.Fprintf(os.Stderr, "perfbench: setup: %d set-ups, min %.4f s, median %.4f s, max %.4f s\n",
		len(setups), percentile(setups, 0), median(setups), percentile(setups, 100))
	n := float64(len(r.ops))
	return map[string]metric{
		"setup_s":            {median(setups), "s"},
		"sim_accesses_per_s": {frac(accesses, r.window.Seconds()), "accesses/s"},
		"job_s":              {median(all) / 1000, "s"},
		"hit_ms_p50":         {percentile(hits, 50), "ms"},
		"within_limit_frac":  {frac(float64(within), n), "fraction"},
		"ok_frac":            {frac(n-failed, n), "fraction"},
		"peak_rss_mb":        {r.rssMB, "MB"},
	}
}

// latencies returns the completed operations' latencies in ms: all of
// them, the hits, and the misses.
func latencies(ops []op) (all, hits, misses []float64) {
	for _, o := range ops {
		if !o.ok {
			continue
		}
		ms := float64(o.latency) / float64(time.Millisecond)
		all = append(all, ms)
		if o.hit {
			hits = append(hits, ms)
		} else {
			misses = append(misses, ms)
		}
	}
	return all, hits, misses
}

// reportSamples states, on stderr, how many samples a latency class has and
// the highest percentile they support.
func reportSamples(class string, ms []float64) {
	p, ok := highestSupported(len(ms), 50, 90, 99, 99.9)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d samples, too few for any percentile with %d beyond it\n",
			class, len(ms), minBeyond)
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d samples, p50 %.3f ms, highest supported p%g = %.3f ms\n",
		class, len(ms), percentile(ms, 50), p, percentile(ms, p))
}
