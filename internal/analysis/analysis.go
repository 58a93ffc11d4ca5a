// Package analysis is a small, dependency-free static-analysis framework
// modeled on golang.org/x/tools/go/analysis, built entirely on the standard
// library (go/ast, go/parser, go/token, go/types). It exists to enforce the
// simulator's determinism contract: every load-bearing guarantee in this
// repository — paired-baseline speedup calibration, the jobs=1-vs-8
// byte-identity CI gate, idylld's content-addressed result cache — assumes
// the deterministic core never consults wall-clock time, global math/rand,
// unordered map iteration, or ad-hoc goroutines. The analyzers under
// checks/ turn the parts of that assumption an import list cannot express
// into machine-checked invariants; the root determinism_contract_test.go
// bans the time, rand and sync imports and keeps the core's module imports
// inside the core.
//
// The deterministic core is the set of packages listed in CorePackages.
// Concurrency and real time belong to the orchestration layers (experiment,
// service, profiling, cmd/...), which are loaded but exempt from the
// core-only checks.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// CorePackages lists the module-relative paths of the deterministic core:
// packages that must produce bit-identical results for a given seed,
// independent of Go release, GOMAXPROCS, scheduling, or map iteration
// order. cmd/idyllvet runs the core-only analyzers on exactly this set, and
// the determinism contract test at the repository root bans wall-clock,
// math/rand and concurrency imports on the same set and requires every
// module import of a core package to be a core package too, so no static
// call chain leaves the core.
//
// config is core: it is the simulator's input (machine, schemes, run
// options) and imports nothing but fmt, strings and other core packages.
// Absent: experiment and service (the concurrency layers: worker pools,
// caches, HTTP), blobstore (the concurrent result store: mutex, disk I/O),
// fault, integrity and fleet (service-side), profiling (wraps
// runtime/pprof), and the cmd/ binaries.
var CorePackages = []string{
	"internal/cache",
	"internal/checkpoint",
	"internal/config",
	"internal/core",
	"internal/datapath",
	"internal/driver",
	"internal/gpu",
	"internal/interconnect",
	"internal/memdef",
	"internal/pagemap",
	"internal/pagetable",
	"internal/sim",
	"internal/sim/pdes",
	"internal/stats",
	"internal/system",
	"internal/tlb",
	"internal/transfw",
	"internal/walker",
	"internal/workload",
}

// IsCore reports whether the module-relative package path (e.g.
// "internal/sim") is part of the deterministic core.
func IsCore(rel string) bool {
	for _, p := range CorePackages {
		if rel == p {
			return true
		}
	}
	return false
}

// An Analyzer describes one named check.
type Analyzer struct {
	// Name identifies the check in diagnostics ("[name]"). Lower-case, no
	// spaces.
	Name string

	// Doc is a one-paragraph description of what the check enforces and
	// why.
	Doc string

	// CoreOnly restricts the analyzer to packages in CorePackages. All
	// determinism checks are core-only: the orchestration layers are
	// allowed (and expected) to use goroutines, sync, and wall time.
	CoreOnly bool

	// Packages, when non-empty, restricts the analyzer to exactly these
	// module-relative package paths — the scoping used by the service-layer
	// contract checks (envelopewrite, missnoterror, metricreg, lockorder),
	// which bind specific orchestration packages rather than the core set.
	// Mutually exclusive with CoreOnly.
	Packages []string

	// Run inspects one package and reports findings via pass.Reportf.
	// Returning an error aborts the whole idyllvet run (exit 2); it is
	// reserved for internal failures, not findings.
	Run func(pass *Pass) error

	// RunProgram, when non-nil, runs once over the whole loaded program
	// instead of package by package — for contract checks that need a
	// cross-package view, like metricreg's registry-vs-increment
	// reconciliation. It only runs when at least one package the analyzer
	// applies to was matched.
	RunProgram func(prog *Program) ([]Diagnostic, error)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkg is the loaded package under analysis: syntax, types, and the
	// type-checker's fact tables.
	Pkg *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:    p.Analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(e)
}

// ObjectOf returns the object denoted by id, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.Pkg.Info.ObjectOf(id)
}

// A Diagnostic is one finding, printable as "file:line:col: [check] message".
type Diagnostic struct {
	Check    string
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Check, d.Message)
}

// A Program is the whole-program view RunAll and the program-level
// analyzers operate on: the matched packages plus the loader that resolves
// (and type-checks) their module-internal dependencies.
type Program struct {
	Loader *Loader
	Pkgs   []*Package // matched packages, in Loader.Match order
}

// NewProgram pairs a loader with its matched packages.
func NewProgram(l *Loader, pkgs []*Package) *Program {
	return &Program{Loader: l, Pkgs: pkgs}
}

// Scoped returns the matched packages the analyzer applies to, in match
// order — the package set a RunProgram implementation should inspect.
func (p *Program) Scoped(a *Analyzer) []*Package {
	var out []*Package
	for _, pkg := range p.Pkgs {
		if a.appliesTo(pkg.Rel) {
			out = append(out, pkg)
		}
	}
	return out
}

// Position resolves a token.Pos against the program's file set.
func (p *Program) Position(pos token.Pos) token.Position {
	return p.Loader.Fset.Position(pos)
}

// Apply runs a single analyzer on a single package regardless of its
// CoreOnly scoping — the entry point the golden-file test harness uses
// against testdata packages.
func Apply(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	if pkg.Types == nil || pkg.Info == nil {
		return nil, fmt.Errorf("package %s was not type-checked", pkg.Path)
	}
	var diags []Diagnostic
	pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, diags: &diags}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// RunAll is the whole-program entry point: it type-checks every matched
// package an analyzer applies to, runs the per-package analyzers and the
// program-level checks, and returns the findings sorted by position.
// Packages no analyzer applies to are parsed but never type-checked, which
// keeps `idyllvet ./...` fast even though the service layer drags in
// net/http. A package that fails to type-check is an error: analyzers must
// never run on partial type information, because a silently missing
// types.Info entry turns a real finding into a false negative.
func RunAll(analyzers []*Analyzer, prog *Program) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, a := range analyzers {
			if !a.appliesTo(pkg.Rel) {
				continue
			}
			if err := prog.Loader.TypeCheck(pkg); err != nil {
				return nil, err
			}
			if a.Run == nil {
				continue
			}
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunProgram == nil || len(prog.Scoped(a)) == 0 {
			continue
		}
		ds, err := a.RunProgram(prog)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		diags = append(diags, ds...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Check < b.Check
	})
}

// appliesTo reports whether the analyzer's scoping admits the
// module-relative package path.
func (a *Analyzer) appliesTo(rel string) bool {
	if a.CoreOnly {
		return IsCore(rel)
	}
	if len(a.Packages) > 0 {
		for _, p := range a.Packages {
			if rel == p {
				return true
			}
		}
		return false
	}
	return true
}
