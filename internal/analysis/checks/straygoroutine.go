package checks

import (
	"go/ast"
	"go/token"

	"idyll/internal/analysis"
)

// Straygoroutine keeps the deterministic core single-threaded: no go
// statements and no channel operations. The event engine is the only
// scheduler — concurrency lives in internal/experiment (worker pool over
// independent cells) and internal/service (HTTP). A stray goroutine
// anywhere in the core would make event interleaving depend on the Go
// scheduler, which no seed can reproduce. sync and sync/atomic need an
// import, which the root TestCoreImportsStayDeterministic bans in the core;
// go statements and channels need none.
var Straygoroutine = &analysis.Analyzer{
	Name:     "straygoroutine",
	CoreOnly: true,
	Doc: "forbid go statements and channel operations in the deterministic " +
		"core: the event engine is the only scheduler, and simulations must " +
		"replay identically regardless of GOMAXPROCS; concurrency belongs to " +
		"experiment/ and service/",
	Run: runStraygoroutine,
}

func runStraygoroutine(pass *analysis.Pass) error {
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
