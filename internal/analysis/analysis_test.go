package analysis

import "testing"

func TestMatchPattern(t *testing.T) {
	tests := []struct {
		pat, rel string
		want     bool
	}{
		{"./...", "", true},
		{"./...", "internal/sim", true},
		{"./...", "cmd/idyllvet", true},
		{"./internal/...", "internal", true},
		{"./internal/...", "internal/sim", true},
		{"./internal/...", "cmd/idyllvet", false},
		{"./internal/sim", "internal/sim", true},
		{"./internal/sim", "internal/sim/sub", false},
		{"./cmd/...", "cmd", true},
		{"./cmd/...", "cmdx", false},
		{".", "", true},
		{".", "internal", false},
	}
	for _, tt := range tests {
		if got := matchPattern(tt.pat, tt.rel); got != tt.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", tt.pat, tt.rel, got, tt.want)
		}
	}
}

// TestLoaderCore exercises the real loader end to end on a small core
// package: discovery, parsing, and type-checking through the chained
// module + source importer.
func TestLoaderCore(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Match([]string{"./internal/memdef"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Rel != "internal/memdef" {
		t.Fatalf("Match(./internal/memdef) = %v", pkgs)
	}
	if !IsCore(pkgs[0].Rel) {
		t.Fatalf("%s must be a core package", pkgs[0].Rel)
	}
	if err := loader.TypeCheck(pkgs[0]); err != nil {
		t.Fatal(err)
	}
	if pkgs[0].Types == nil || pkgs[0].Info == nil {
		t.Fatal("TypeCheck left Types/Info nil")
	}
	if pkgs[0].Types.Name() != "memdef" {
		t.Fatalf("type-checked package name = %q", pkgs[0].Types.Name())
	}
}

// TestRunSkipsNonCore pins the scoping rule on a two-package module: a
// CoreOnly analyzer runs on the core package and never on the non-core
// one, and RunAll does not even type-check a package no analyzer applies
// to (the non-core package here would fail to).
func TestRunSkipsNonCore(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                            "module probe\n\ngo 1.22\n",
		"internal/config/config.go":         "package config\n\nvar X int\n",
		"internal/experiment/experiment.go": "package experiment\n\nvar X int = \"not an int\"\n",
	})

	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Match([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var ran []string
	a := &Analyzer{
		Name:     "probe",
		Doc:      "test probe",
		CoreOnly: true,
		Run: func(pass *Pass) error {
			ran = append(ran, pass.Pkg.Rel)
			pass.Reportf(pass.Pkg.Files[0].Package, "probe fired")
			return nil
		},
	}
	diags, err := RunAll([]*Analyzer{a}, NewProgram(loader, pkgs))
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || ran[0] != "internal/config" || len(diags) != 1 {
		t.Fatalf("CoreOnly analyzer ran on %v with %d findings, want only internal/config with 1", ran, len(diags))
	}
	for _, pkg := range pkgs {
		if pkg.Rel == "internal/experiment" && pkg.Types != nil {
			t.Fatal("RunAll type-checked a package no analyzer applies to")
		}
	}
}
