package idyll

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"idyll/internal/analysis"
)

// bannedCoreImports are the packages whose mere presence in a deterministic
// core import block breaks the determinism contract (DESIGN.md "The
// determinism contract"). Every wall-clock read, math/rand draw, lock or
// atomic needs one of these imports, so banning the import bans the use.
// time is banned outright — even time.Duration: the core runs on virtual
// time (sim.VTime).
var bannedCoreImports = map[string]string{
	"time":         "core time is virtual (sim.VTime); wall-clock use breaks byte-identical replay",
	"sync":         "the core is single-threaded by contract; concurrency belongs to experiment/service",
	"sync/atomic":  "the core is single-threaded by contract; concurrency belongs to experiment/service",
	"math/rand":    "core randomness must come from the seeded sim.Rand",
	"math/rand/v2": "core randomness must come from the seeded sim.Rand",
}

// module is this module's path (go.mod).
const module = "idyll"

// TestCoreImportsStayDeterministic parses only the import clauses of every
// non-test file in every core package — no type-checking, so it stays fast
// enough to never be worth skipping. It checks two things. No core file
// imports a banned package. And every module import of a core file is
// itself a core package, so the core is closed under its imports: no
// static call chain from the core reaches code these bans and idyllvet's
// core-only checks do not cover.
func TestCoreImportsStayDeterministic(t *testing.T) {
	fset := token.NewFileSet()
	for _, rel := range analysis.CorePackages {
		dir := filepath.FromSlash(rel)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("core package %s listed in analysis.CorePackages cannot be read: %v", rel, err)
		}
		checked := 0
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			checked++
			for _, msg := range coreImportViolations(fset, path, f) {
				t.Error(msg)
			}
		}
		if checked == 0 {
			t.Errorf("core package %s has no non-test Go files; fix analysis.CorePackages", rel)
		}
	}
}

// coreImportViolations returns one message per import of f, a non-test
// file of a core package at path, that breaks the contract: a banned
// package, or a module package outside analysis.CorePackages.
func coreImportViolations(fset *token.FileSet, path string, f *ast.File) []string {
	var out []string
	for _, imp := range f.Imports {
		ipath, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		line := fset.Position(imp.Pos()).Line
		if why, banned := bannedCoreImports[ipath]; banned {
			out = append(out, fmt.Sprintf("%s:%d imports %q: %s", path, line, ipath, why))
		}
		inModule := ipath == module || strings.HasPrefix(ipath, module+"/")
		if inModule && !analysis.IsCore(strings.TrimPrefix(ipath, module+"/")) {
			out = append(out, fmt.Sprintf("%s:%d imports %q, which is not in analysis.CorePackages: the core may import only the core", path, line, ipath))
		}
	}
	return out
}

// TestCoreImportCheckCatchesSeededDefects seeds, into core files, each
// defect that a retired idyllvet check used to report, and requires the
// contract test's per-file check to flag it. walltime and globalrand were
// analyzers for wall-clock reads and math/rand draws; sync was
// straygoroutine's lock and atomic ban; closure is what the taint engine
// caught, a core function reaching non-core code.
func TestCoreImportCheckCatchesSeededDefects(t *testing.T) {
	tests := []struct {
		name, path, src, want string
	}{
		{"walltime", "internal/config/schemes.go",
			"package config\nimport \"time\"\nfunc Stamp() int64 { return time.Now().UnixNano() }\n",
			`imports "time"`},
		{"globalrand", "internal/config/schemes.go",
			"package config\nimport \"math/rand\"\nfunc Pick(n int) int { return rand.Intn(n) }\n",
			`imports "math/rand"`},
		{"globalrand_v2", "internal/sim/rand.go",
			"package sim\nimport \"math/rand/v2\"\nfunc Pick(n int) int { return rand.IntN(n) }\n",
			`imports "math/rand/v2"`},
		{"sync", "internal/memdef/memdef.go",
			"package memdef\nimport \"sync\"\nvar mu sync.Mutex\n",
			`imports "sync"`},
		{"atomic", "internal/config/config.go",
			"package config\nimport \"sync/atomic\"\nvar n atomic.Uint64\n",
			`imports "sync/atomic"`},
		{"closure", "internal/memdef/memdef.go",
			"package memdef\nimport \"idyll/internal/fault\"\nvar _ = fault.Plan{}\n",
			`imports "idyll/internal/fault", which is not in analysis.CorePackages`},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, tt.path, tt.src, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			got := coreImportViolations(fset, tt.path, f)
			if len(got) != 1 || !strings.Contains(got[0], tt.want) {
				t.Errorf("seeded %s defect: got %q, want one message containing %q", tt.name, got, tt.want)
			}
		})
	}

	// The clean counterpart: core-to-core and standard-library imports
	// other than the banned ones pass.
	fset := token.NewFileSet()
	src := "package gpu\nimport (\n\"fmt\"\n\"idyll/internal/config\"\n\"idyll/internal/sim\"\n)\n"
	f, err := parser.ParseFile(fset, "internal/gpu/gpu.go", src, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	if got := coreImportViolations(fset, "internal/gpu/gpu.go", f); len(got) != 0 {
		t.Errorf("clean core imports flagged: %q", got)
	}
}
