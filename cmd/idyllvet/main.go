// idyllvet is the repository's determinism linter: a pure-stdlib static
// analysis pass that enforces the simulator core's determinism contract
// (virtual time only, seeded RNG only, no stray concurrency, no
// order-sensitive map iteration — transitively, over the whole static call
// graph) plus the service-layer operational contracts (integrity envelopes
// on every disk write, disk errors degrading to cache misses, the metric-
// key registry, mutex acquisition order). See DESIGN.md "The determinism
// contract".
//
// Usage:
//
//	idyllvet [-checks walltime,maporder] [-list] [-counts] [packages]
//
// Packages default to ./... and accept the go tool's "./dir/..." pattern
// syntax. Findings print as "file:line:col: [check] message" and any
// unsuppressed finding makes the tool exit 1; load or type-check failures
// exit 2. Suppress a reviewed exception with
//
//	//idyllvet:ignore <check>[,<check>...] <justification>
//
// on, or directly above, the offending line (ignore-file for a whole
// file).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"idyll/internal/analysis"
	"idyll/internal/analysis/checks"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		checksFlag = flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
		listFlag   = flag.Bool("list", false, "list available checks and exit")
		rootFlag   = flag.String("root", ".", "module root directory")
		countsFlag = flag.Bool("counts", false, "print per-check finding counts to stderr")
	)
	flag.Parse()

	analyzers := checks.All()
	if *listFlag {
		for _, a := range analyzers {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *checksFlag != "" {
		var unknown string
		analyzers, unknown = checks.ByName(strings.Split(*checksFlag, ","))
		if unknown != "" {
			fmt.Fprintf(os.Stderr, "idyllvet: unknown check %q (see idyllvet -list)\n", unknown)
			return 2
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(*rootFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "idyllvet: %v\n", err)
		return 2
	}
	pkgs, err := loader.Match(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "idyllvet: %v\n", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(os.Stderr, "idyllvet: no packages match %v\n", patterns)
		return 2
	}
	diags, err := analysis.RunAll(analyzers, analysis.NewProgram(loader, pkgs))
	if err != nil {
		fmt.Fprintf(os.Stderr, "idyllvet: %v\n", err)
		return 2
	}

	cwd, _ := os.Getwd()
	for _, d := range diags {
		file := d.Position.Filename
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = rel
			}
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", file, d.Position.Line, d.Position.Column, d.Check, d.Message)
	}
	if *countsFlag {
		printCounts(analyzers, diags)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "idyllvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// printCounts emits one "check: N" line per registered analyzer (zeros
// included, so a check silently matching nothing is visible) plus a total.
func printCounts(analyzers []*analysis.Analyzer, diags []analysis.Diagnostic) {
	counts := make(map[string]int)
	for _, d := range diags {
		counts[d.Check]++
	}
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	// Directive misuse reports under the reserved "idyllvet" pseudo-check.
	if counts["idyllvet"] > 0 {
		names = append(names, "idyllvet")
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "idyllvet: %-15s %d\n", name, counts[name])
	}
	fmt.Fprintf(os.Stderr, "idyllvet: total %d finding(s)\n", len(diags))
}
