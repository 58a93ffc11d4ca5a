// Command idyllbench regenerates the paper's evaluation: every table and
// figure of the IDYLL paper (MICRO'23), printed as text tables in the same
// row/column layout as the plots.
//
// Simulation cells (one (scheme, application) run each) fan out across a
// bounded worker pool; tables on stdout are byte-identical at any -jobs
// width, so output can be diffed across runs and machines. Progress and
// timing go to stderr.
//
// Usage:
//
//	idyllbench                 # regenerate everything, all cores
//	idyllbench -jobs 1         # serial (same output, slower)
//	idyllbench -fig fig11      # one experiment
//	idyllbench fig11 fig12     # same, positional (unknown IDs exit non-zero)
//	idyllbench -list           # list experiment IDs
//	idyllbench -cus 8 -accesses 300   # smaller scale
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"idyll/internal/experiment"
	"idyll/internal/profiling"
)

func main() {
	var (
		fig      = flag.String("fig", "", "run a single experiment by ID (e.g. fig11)")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		cus      = flag.Int("cus", 0, "CUs per GPU (default: suite default)")
		accesses = flag.Int("accesses", 0, "accesses per CU (default: suite default)")
		seed     = flag.Uint64("seed", 0, "workload seed (default: suite default)")
		appsFlag = flag.String("apps", "", "comma-separated app subset (default: all)")
		format   = flag.String("format", "text", "output format: text, csv, json")
		jobs     = flag.Int("jobs", 0, "concurrent simulation cells (0 = all cores)")
		quiet    = flag.Bool("quiet", false, "suppress the stderr progress display")
		prof     profiling.Flags
	)
	prof.Register(flag.CommandLine)
	flag.Parse()

	// An unknown format exits non-zero naming the valid set before any
	// experiment runs.
	switch *format {
	case "text", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "idyllbench: unknown format %q (known: text, csv, json)\n", *format)
		os.Exit(1)
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "idyllbench:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "idyllbench:", err)
		}
	}()

	if *list {
		for _, e := range experiment.Registry() {
			fmt.Printf("  %-14s %s\n", e.ID, e.Notes)
		}
		return
	}

	o := experiment.DefaultOptions()
	if *cus > 0 {
		o.CUsPerGPU = *cus
	}
	if *accesses > 0 {
		o.AccessesPerCU = *accesses
	}
	if *seed != 0 {
		o.Seed = *seed
	}
	if *appsFlag != "" {
		o.Apps = splitCSV(*appsFlag)
	}
	o.Jobs = *jobs

	// Ctrl-C / SIGTERM cancels the suite cooperatively: workers stop at
	// their next event-loop batch instead of running their cell to the end.
	ctx, stopSignals := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	o = o.WithContext(ctx)

	// Figure IDs come from -fig and/or positional arguments; every ID must
	// resolve, and an unknown one exits non-zero naming the valid set
	// (positional IDs used to be ignored silently, regenerating everything).
	ids := flag.Args()
	if *fig != "" {
		ids = append([]string{*fig}, ids...)
	}
	entries := experiment.Registry()
	if len(ids) > 0 {
		entries = entries[:0]
		for _, id := range ids {
			e, err := experiment.Find(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, "idyllbench:", err)
				os.Exit(1)
			}
			entries = append(entries, e)
		}
	}

	start := time.Now()
	for _, e := range entries {
		t0 := time.Now()
		if !*quiet {
			o.Progress = experiment.ProgressPrinter(os.Stderr, e.ID)
		}
		tab, err := e.Run(o)
		if err != nil {
			if errors.Is(err, context.Canceled) || ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "idyllbench: %s: interrupted\n", e.ID)
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "idyllbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		var body string
		switch *format {
		case "csv":
			body = tab.RenderCSV()
		case "json":
			body, err = tab.RenderJSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "idyllbench: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
		case "text":
			body = tab.Render()
		}
		// Tables go to stdout and depend only on (scale, seed, apps);
		// timing goes to stderr so runs diff cleanly.
		fmt.Printf("== %s ==\n%s\n", e.ID, body)
		fmt.Fprintf(os.Stderr, "%s done in %.1fs\n", e.ID, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "regenerated %d experiments in %.1fs\n",
		len(entries), time.Since(start).Seconds())
}

func splitCSV(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ',' {
			if cur != "" {
				out = append(out, cur)
			}
			cur = ""
			continue
		}
		if r != ' ' {
			cur += string(r)
		}
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
