package idyll

import (
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
// core import block breaks the contract idyllvet enforces (DESIGN.md "The
// determinism contract"). time is banned outright — even time.Duration:
// configuration surfaces that want duration knobs live in internal/config,
// which is outside the core set. This test is a deliberately cheap backstop
// for the full idyllvet pass: it runs with the ordinary unit tests, so even
// if the idyllvet CI job is skipped or broken, a wall-clock or concurrency
// import in the core still fails `go test ./...`.
var bannedCoreImports = map[string]string{
	"time":         "core time is virtual (sim.VTime); wall-clock use breaks byte-identical replay",
	"sync":         "the core is single-threaded by contract; concurrency belongs to experiment/service",
	"sync/atomic":  "the core is single-threaded by contract; concurrency belongs to experiment/service",
	"math/rand":    "core randomness must come from the seeded sim.Rand",
	"math/rand/v2": "core randomness must come from the seeded sim.Rand",
}

// TestCoreImportsStayDeterministic parses only the import clauses of every
// non-test file in every core package — no type-checking, so it stays fast
// enough to never be worth skipping.
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
			for _, imp := range f.Imports {
				ipath, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if why, banned := bannedCoreImports[ipath]; banned {
					pos := fset.Position(imp.Pos())
					t.Errorf("%s:%d imports %q: %s", path, pos.Line, ipath, why)
				}
			}
		}
		if checked == 0 {
			t.Errorf("core package %s has no non-test Go files; fix analysis.CorePackages", rel)
		}
	}
}
