package checks

import (
	"go/ast"
	"go/token"

	"idyll/internal/analysis"
)

// Straygoroutine keeps the deterministic core single-threaded: no go
// statements, no channel operations, no sync primitives. The event engine
// is the only scheduler — concurrency lives in internal/experiment (worker
// pool over independent cells) and internal/service (HTTP). A stray
// goroutine anywhere in the core would make event interleaving depend on the
// Go scheduler, which no seed can reproduce.
var Straygoroutine = &analysis.Analyzer{
	Name:     "straygoroutine",
	CoreOnly: true,
	Doc: "forbid go statements, channel operations, and sync primitives in the " +
		"deterministic core: the event engine is the only scheduler, and " +
		"simulations must replay identically regardless of GOMAXPROCS; " +
		"concurrency belongs to experiment/ and service/; chains into non-core " +
		"helpers that spawn goroutines or select over channels are reported " +
		"interprocedurally",
	Run:     runStraygoroutine,
	Sources: straygoroutineSources,
}

// straygoroutineSources marks scheduler-dependent constructs inside fn as
// taint sources: spawning a goroutine, selecting over channels, and raw
// channel sends/receives. sync.Mutex plumbing alone is not a source,
// because a lock changes scheduling only when a second goroutine exists to
// contend with (which the go-statement source already reports).
func straygoroutineSources(pass *analysis.Pass, fn *ast.FuncDecl) []analysis.Source {
	if fn.Body == nil {
		return nil
	}
	var out []analysis.Source
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			out = append(out, analysis.Source{Pos: x.Pos(), Msg: "spawns a goroutine (event interleaving would depend on the Go scheduler)"})
		case *ast.SelectStmt:
			out = append(out, analysis.Source{Pos: x.Pos(), Msg: "selects over channels (case choice is scheduler-dependent)"})
		case *ast.SendStmt:
			out = append(out, analysis.Source{Pos: x.Pos(), Msg: "sends on a channel (cross-goroutine communication is scheduler-dependent)"})
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				out = append(out, analysis.Source{Pos: x.Pos(), Msg: "receives from a channel (cross-goroutine communication is scheduler-dependent)"})
			}
		}
		return true
	})
	return out
}

func runStraygoroutine(pass *analysis.Pass) error {
	reportImports(pass, map[string]string{
		"sync":        "the core is single-threaded by contract; locking hides scheduling dependence instead of removing it",
		"sync/atomic": "the core is single-threaded by contract; atomics hide scheduling dependence instead of removing it",
	})
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(x.Pos(), "go statement in the deterministic core: event interleaving would depend on the Go scheduler; schedule on the sim.Engine instead")
			case *ast.SelectStmt:
				pass.Reportf(x.Pos(), "select in the deterministic core: case choice is scheduler-dependent")
			case *ast.SendStmt:
				pass.Reportf(x.Pos(), "channel send in the deterministic core: cross-goroutine communication is scheduler-dependent")
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					pass.Reportf(x.Pos(), "channel receive in the deterministic core: cross-goroutine communication is scheduler-dependent")
				}
			case *ast.ChanType:
				pass.Reportf(x.Pos(), "channel type in the deterministic core: use sim.Engine events and plain callbacks")
			}
			return true
		})
	}
	return nil
}
