package analysis

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestLoadErrorPosition pins the missing-package failure mode end to end: a
// module-internal import naming a directory with no Go files must surface
// from RunAll as a *LoadError carrying the import path and the position of
// the offending import spec — the contract cmd/idyllvet relies on to print
// a file:line:col diagnostic and exit 2 instead of dumping whatever type-
// checker error happens to come first.
func TestLoadErrorPosition(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module broken\n\ngo 1.22\n",
		"a.go": `package a

import "broken/missing"

var _ = missing.X
`,
	})
	// The directory exists but holds no Go files — the shape left behind by
	// a bad rename or an over-eager delete.
	if err := os.MkdirAll(filepath.Join(root, "missing"), 0o755); err != nil {
		t.Fatal(err)
	}

	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Match([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Match(./...) = %d packages, want 1", len(pkgs))
	}

	// An unscoped probe applies everywhere, forcing RunAll to type-check
	// the broken package.
	probe := &Analyzer{
		Name: "probe",
		Doc:  "test probe",
		Run:  func(pass *Pass) error { return nil },
	}
	_, err = RunAll([]*Analyzer{probe}, NewProgram(loader, pkgs))
	if err == nil {
		t.Fatal("RunAll succeeded despite the unresolvable import")
	}
	var le *LoadError
	if !errors.As(err, &le) {
		t.Fatalf("RunAll error = %v (%T), want a *LoadError in the chain", err, err)
	}
	if le.Pkg != "broken/missing" {
		t.Errorf("LoadError.Pkg = %q, want broken/missing", le.Pkg)
	}
	if !le.Pos.IsValid() {
		t.Fatalf("LoadError.Pos is zero; the diagnostic must point at the import spec")
	}
	if filepath.Base(le.Pos.Filename) != "a.go" || le.Pos.Line != 3 {
		t.Errorf("LoadError.Pos = %s:%d, want a.go:3 (the import spec)", le.Pos.Filename, le.Pos.Line)
	}
}

// writeModule lays out files (module-relative slash path → contents) in a
// fresh temporary directory and returns it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}
