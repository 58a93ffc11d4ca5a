package checks_test

import (
	"testing"

	"idyll/internal/analysis"
	"idyll/internal/analysis/analysistest"
	"idyll/internal/analysis/checks"
)

// TestAnalyzers drives every analyzer over its golden package under
// ../testdata/src, covering positive and negative cases via the // want
// expectation comments in the sources themselves. Single-directory goldens
// run one analyzer through the per-package path; the mini-module goldens (a
// go.mod of their own under testdata/src/<name>) run the whole-program
// pipeline with the real package scoping, exactly as `idyllvet ./...` does.
func TestAnalyzers(t *testing.T) {
	tests := []struct {
		analyzer *analysis.Analyzer
		pkg      string
	}{
		{checks.Straygoroutine, "straygoroutine"},
		{checks.Maporder, "maporder"},
		{checks.Floataccum, "floataccum"},
		{checks.Envelopewrite, "envelopewrite"},
		{checks.Missnoterror, "missnoterror"},
		{checks.Lockorder, "lockorder"},
	}
	seen := make(map[string]bool)
	for _, tt := range tests {
		seen[tt.analyzer.Name] = true
		tt := tt
		t.Run(tt.pkg, func(t *testing.T) {
			analysistest.Run(t, tt.analyzer, "../testdata", tt.pkg)
		})
	}
	// Whole-program goldens: coreconfig pins that internal/config is core
	// (the core-only checks fire there and stay silent on the same code in
	// internal/experiment), and metricreg pins the registry reconciliation
	// across two packages.
	t.Run("coreconfig", func(t *testing.T) {
		analysistest.RunModule(t, checks.All(), "../testdata", "coreconfig")
	})
	t.Run("metricreg", func(t *testing.T) {
		analysistest.RunModule(t, checks.All(), "../testdata", "metricreg")
	})
	seen[checks.Metricreg.Name] = true
	// Every registered analyzer must have a golden package; a new check
	// added to All() without one fails here.
	for _, a := range checks.All() {
		if !seen[a.Name] {
			t.Errorf("analyzer %s has no golden test package", a.Name)
		}
	}
}

// TestRegistry pins the registry's shape: the seven checks in registration
// order, with docs, and the scoping contract — every analyzer is either
// core-only (the determinism checks) or bound to an explicit package list
// (the service-layer contract checks); nothing may silently apply
// everywhere.
func TestRegistry(t *testing.T) {
	want := []string{
		"straygoroutine", "maporder", "floataccum",
		"envelopewrite", "missnoterror", "metricreg", "lockorder",
	}
	all := checks.All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d analyzers, want %d (%v)", len(all), len(want), want)
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s is missing its doc", a.Name)
		}
		if a.Run == nil && a.RunProgram == nil {
			t.Errorf("analyzer %s has neither Run nor RunProgram", a.Name)
		}
		if a.CoreOnly == (len(a.Packages) > 0) {
			t.Errorf("analyzer %s must be either CoreOnly or scoped to an explicit package list (got CoreOnly=%v, %d packages)",
				a.Name, a.CoreOnly, len(a.Packages))
		}
		if a.CoreOnly && a.Run == nil {
			t.Errorf("core determinism check %s must have a per-package Run", a.Name)
		}
	}
}
