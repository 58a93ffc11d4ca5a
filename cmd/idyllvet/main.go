// idyllvet is the repository's determinism linter: a pure-stdlib static
// analysis pass that enforces the parts of the simulator core's determinism
// contract an import list cannot express (no go statements or channels, no
// order-sensitive map iteration or float accumulation) plus the
// service-layer operational contracts (integrity envelopes on every disk
// write, disk errors degrading to cache misses, the metric-key registry,
// mutex acquisition order). The core's time, math/rand and sync bans and
// its import closure are checked by the root determinism_contract_test.go.
// See DESIGN.md "The determinism contract".
//
// Usage:
//
//	idyllvet [-counts] [-root dir] [packages]
//
// Packages default to ./... and accept the go tool's "./dir/..." pattern
// syntax. Findings print as "file:line:col: [check] message" and any
// finding makes the tool exit 1; load or type-check failures exit 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"idyll/internal/analysis"
	"idyll/internal/analysis/checks"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		rootFlag   = flag.String("root", ".", "module root directory")
		countsFlag = flag.Bool("counts", false, "print per-check finding counts to stderr")
	)
	flag.Parse()

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
	analyzers := checks.All()
	diags, err := analysis.RunAll(analyzers, analysis.NewProgram(loader, pkgs))
	if err != nil {
		fmt.Fprintf(os.Stderr, "idyllvet: %v\n", err)
		return 2
	}

	cwd, _ := os.Getwd()
	for _, d := range diags {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, d.Position.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				d.Position.Filename = rel
			}
		}
		fmt.Println(d)
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
// included, so a check silently matching nothing is visible), in
// registration order, plus a total.
func printCounts(analyzers []*analysis.Analyzer, diags []analysis.Diagnostic) {
	counts := make(map[string]int)
	for _, d := range diags {
		counts[d.Check]++
	}
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "idyllvet: %-15s %d\n", a.Name, counts[a.Name])
	}
	fmt.Fprintf(os.Stderr, "idyllvet: total %d finding(s)\n", len(diags))
}
