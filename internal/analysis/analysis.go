// Package analysis is a small, dependency-free static-analysis framework
// modeled on golang.org/x/tools/go/analysis, built entirely on the standard
// library (go/ast, go/parser, go/token, go/types). It exists to enforce the
// simulator's determinism contract: every load-bearing guarantee in this
// repository — paired-baseline speedup calibration, the jobs=1-vs-8
// byte-identity CI gate, idylld's content-addressed result cache — assumes
// the deterministic core never consults wall-clock time, global math/rand,
// unordered map iteration, or ad-hoc goroutines. The analyzers under
// checks/ turn that assumption into a machine-checked invariant.
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
// the determinism contract test at the repository root independently bans
// wall-clock and concurrency imports on the same set as a cheap backstop.
//
// Deliberately absent: config (a configuration surface — it may carry
// time.Duration knobs for the service layer), experiment and service (the
// concurrency layers: worker pools, caches, HTTP), blobstore (the
// concurrent result and warmup-checkpoint store: mutex, singleflight, disk
// I/O — the pure checkpoint codec in internal/checkpoint IS core),
// profiling (wraps runtime/pprof), and the cmd/ binaries.
var CorePackages = []string{
	"internal/cache",
	"internal/checkpoint",
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
	// Name identifies the check in diagnostics ("[name]") and in
	// //idyllvet:ignore comments. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description of what the check enforces and
	// why, shown by `idyllvet -list`.
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

	// Sources, when non-nil, enrolls the analyzer in the interprocedural
	// taint engine: it reports the nondeterminism source sites inside one
	// function body (a time.Now call, an order-sensitive map range, ...).
	// The engine calls it on every type-checked function in the module —
	// core and non-core alike — and propagates the taint backwards over
	// the static call graph, so a core function whose call chain reaches a
	// source three packages away is reported with the full chain even
	// though no core file mentions the source directly. Sources must not
	// call pass.Reportf; it returns sites, the engine does the reporting.
	Sources func(pass *Pass, fn *ast.FuncDecl) []Source

	// RunProgram, when non-nil, runs once over the whole loaded program
	// instead of package by package — for contract checks that need a
	// cross-package view, like metricreg's registry-vs-increment
	// reconciliation. It only runs when at least one package the analyzer
	// applies to was matched.
	RunProgram func(prog *Program) ([]Diagnostic, error)
}

// A Source is one nondeterminism site inside a function body, found by an
// Analyzer's Sources hook and propagated by the taint engine.
type Source struct {
	Pos token.Pos
	Msg string // e.g. "time.Now reads the wall clock"
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

// A Diagnostic is one finding, printable as "file:line:col [check] message".
type Diagnostic struct {
	Check    string
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Check, d.Message)
}

// Run applies each applicable analyzer to each package and returns the
// findings sorted by position, with //idyllvet:ignore suppressions already
// applied. Packages that fail to type-check surface as an error: analyzers
// must never run on partial type information, because a silently missing
// types.Info entry turns a real finding into a false negative.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		applicable := applicableTo(analyzers, pkg)
		if len(applicable) == 0 {
			continue
		}
		if pkg.Types == nil || pkg.Info == nil {
			return nil, fmt.Errorf("package %s was not type-checked", pkg.Path)
		}
		var raw []Diagnostic
		for _, a := range applicable {
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, diags: &raw}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
		diags = append(diags, applyDirectives(pkg, raw)...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// Apply runs a single analyzer on a single package regardless of its
// CoreOnly scoping, with suppression directives applied — the entry point
// the golden-file test harness uses against testdata packages.
func Apply(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	if pkg.Types == nil || pkg.Info == nil {
		return nil, fmt.Errorf("package %s was not type-checked", pkg.Path)
	}
	var raw []Diagnostic
	pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, diags: &raw}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	diags := applyDirectives(pkg, raw)
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

func applicableTo(analyzers []*Analyzer, pkg *Package) []*Analyzer {
	var out []*Analyzer
	for _, a := range analyzers {
		if !a.appliesTo(pkg.Rel) {
			continue
		}
		out = append(out, a)
	}
	return out
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

// NeedsTypes reports whether any analyzer in the set applies to pkg, i.e.
// whether the loader must type-check it at all. Parsing every package but
// type-checking only the analyzed ones keeps `idyllvet ./...` fast even
// though the service layer drags in net/http.
func NeedsTypes(analyzers []*Analyzer, pkg *Package) bool {
	return len(applicableTo(analyzers, pkg)) > 0
}

// RunAll is the whole-program entry point: it type-checks every matched
// package an analyzer applies to (core packages additionally when any
// analyzer enrolls in the taint engine, since their module-internal
// dependencies are pulled in transitively), runs the per-package analyzers,
// the interprocedural taint engine, and the program-level checks, and
// returns the findings with suppression directives from every matched
// package applied.
func RunAll(analyzers []*Analyzer, prog *Program) ([]Diagnostic, error) {
	needTaint := false
	for _, a := range analyzers {
		if a.Sources != nil {
			needTaint = true
			break
		}
	}
	for _, pkg := range prog.Pkgs {
		if len(applicableTo(analyzers, pkg)) == 0 && !(needTaint && IsCore(pkg.Rel)) {
			continue
		}
		if err := prog.Loader.TypeCheck(pkg); err != nil {
			return nil, err
		}
	}

	var raw []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, a := range applicableTo(analyzers, pkg) {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, diags: &raw}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	if needTaint {
		raw = append(raw, runTaint(analyzers, prog)...)
	}
	for _, a := range analyzers {
		if a.RunProgram == nil || len(prog.Scoped(a)) == 0 {
			continue
		}
		ds, err := a.RunProgram(prog)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		raw = append(raw, ds...)
	}

	diags := applyDirectivesAll(prog.Pkgs, raw)
	sortDiagnostics(diags)
	return diags, nil
}
