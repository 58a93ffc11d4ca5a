// Command idylltrace generates, inspects, and replays workload traces.
// Saving a generated trace lets every scheme of an experiment run the
// byte-identical access stream, and gives external tools a way to feed
// their own traces into the simulator.
//
//	idylltrace gen -app PR -out pr.trace              # generate + save
//	idylltrace info pr.trace                          # summarize
//	idylltrace run -scheme idyll pr.trace             # simulate a file
//	idylltrace run -scheme all -jobs 4 pr.trace       # scheme sweep, parallel
//
// With a comma-separated -scheme list (or "all"), the schemes run
// concurrently on the suite's worker pool, all replaying the same loaded
// trace; summaries print in the order the schemes were named.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"idyll/internal/config"
	"idyll/internal/experiment"
	"idyll/internal/memdef"
	"idyll/internal/profiling"
	"idyll/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "run":
		cmdRun(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  idylltrace gen  -app <abbr> [-gpus N] [-cus N] [-accesses N] [-seed N] -out FILE
  idylltrace info FILE
  idylltrace run  [-scheme NAME[,NAME...]|all] [-threshold N] [-jobs N] FILE`)
	os.Exit(2)
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	app := fs.String("app", "PR", "application abbreviation")
	def := experiment.DefaultOptions()
	gpus := fs.Int("gpus", config.Default().NumGPUs, "GPUs")
	cus := fs.Int("cus", def.CUsPerGPU, "CUs per GPU")
	accesses := fs.Int("accesses", def.AccessesPerCU, "accesses per CU")
	seed := fs.Uint64("seed", def.Seed, "seed")
	out := fs.String("out", "", "output file (required)")
	fs.Parse(args)
	if *out == "" {
		usage()
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"gpus", *gpus}, {"cus", *cus}, {"accesses", *accesses}} {
		if f.v <= 0 {
			fatal(fmt.Errorf("-%s must be positive, got %d", f.name, f.v))
		}
	}
	p, err := workload.App(*app)
	fatal(err)
	trace := workload.Generate(p, *gpus, *cus, *accesses, *seed)
	f, err := os.Create(*out)
	fatal(err)
	defer f.Close()
	fatal(trace.Save(f))
	fmt.Printf("wrote %s: %s on %d GPUs, %d accesses\n",
		*out, p.Abbr, trace.NumGPUs, trace.TotalAccesses())
}

func loadTrace(path string) *workload.Trace {
	f, err := os.Open(path)
	fatal(err)
	defer f.Close()
	t, err := workload.ReadTrace(f)
	fatal(err)
	return t
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	t := loadTrace(fs.Arg(0))
	writes := 0
	pages := map[memdef.VPN]bool{}
	for _, gpu := range t.Accesses {
		for _, cu := range gpu {
			for _, a := range cu {
				if a.Write {
					writes++
				}
				pages[memdef.PageNum(a.VA, memdef.Page4K)] = true
			}
		}
	}
	total := t.TotalAccesses()
	writePct := 0.0
	if total > 0 { // a trace file may hold GPUs with no CUs
		writePct = float64(writes) / float64(total) * 100
	}
	fmt.Printf("name:        %s\n", t.Params.Abbr)
	fmt.Printf("gpus:        %d\n", t.NumGPUs)
	fmt.Printf("cus/gpu:     %d\n", len(t.Accesses[0]))
	fmt.Printf("accesses:    %d (%.1f%% writes)\n", total, writePct)
	fmt.Printf("4KB pages:   %d (%.1f MB footprint)\n", len(pages), float64(len(pages))*4/1024)
	fmt.Printf("issue shape: gap=%d cy, instr/access=%d\n",
		t.Params.ComputeGap, t.Params.InstrPerAccess)
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	schemeNames := fs.String("scheme", "idyll",
		"scheme, comma-separated scheme list, or 'all'")
	threshold := fs.Int("threshold", experiment.DefaultOptions().CounterThreshold, "access-counter threshold")
	jobs := fs.Int("jobs", 0, "concurrent scheme runs (0 = all cores)")
	quiet := fs.Bool("quiet", false, "suppress the stderr progress display")
	engineStats := fs.Bool("enginestats", false,
		"also print the event engine's internal counters per scheme")
	var prof profiling.Flags
	prof.Register(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	stopProf, err := prof.Start()
	fatal(err)
	defer func() { fatal(stopProf()) }()
	t := loadTrace(fs.Arg(0))
	names := *schemeNames
	if names == "all" {
		names = strings.Join(config.SchemeNames(), ",")
	}
	m := config.Default()
	m.AccessCounterThreshold = *threshold // trace geometry is set per cell

	// Each scheme is one cell of the pool; every cell replays the same
	// loaded trace (read-only during runs), so the sweep parallelizes
	// without re-reading or regenerating anything.
	o := experiment.Options{Jobs: *jobs, CounterThreshold: *threshold}
	if !*quiet {
		o.Progress = experiment.ProgressPrinter(os.Stderr, t.Params.Abbr)
	}
	var specs []experiment.CellSpec
	var schemes []config.Scheme
	for _, name := range strings.Split(names, ",") {
		scheme, err := config.SchemeByName(name)
		fatal(err)
		schemes = append(schemes, scheme)
		specs = append(specs, experiment.CellSpec{
			Figure: "trace", App: t.Params.Abbr,
			Machine: m, Scheme: scheme, Trace: t,
		})
	}
	res, err := experiment.RunCells(o, specs)
	fatal(err)
	for i, st := range res {
		if len(res) > 1 {
			fmt.Printf("== %s ==\n", schemes[i].Name)
		}
		fmt.Println(st.Summary())
		if *engineStats {
			fmt.Printf("engine: events=%d bucket=%.1f%% (ring=%d heap=%d migrated=%d) pool-hits=%d\n",
				st.EngineEvents, st.EngineBucketFraction()*100,
				st.EngineRingScheduled, st.EngineFarScheduled, st.EngineMigrated,
				st.EnginePoolHits)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "idylltrace:", err)
		os.Exit(1)
	}
}
