// Package checks holds the idyllvet analyzers: the core-only determinism
// checks that an import list cannot express (stray goroutines and
// channels, order-sensitive map iteration, float accumulation in map
// order), and the service-layer contract checks, each scoped to the
// orchestration packages it binds.
package checks

import (
	"go/ast"
	"go/types"

	"idyll/internal/analysis"
)

// All returns every analyzer, in stable registration order: the three
// core-only determinism checks, then the service-layer contract checks.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Straygoroutine,
		Maporder,
		Floataccum,
		Envelopewrite,
		Missnoterror,
		Metricreg,
		Lockorder,
	}
}

// ---------------------------------------------------------------------------
// Shared AST helpers.
// ---------------------------------------------------------------------------

// calleeFunc resolves a call expression's static callee, or nil for calls
// through function values, builtins, and type conversions.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	f, _ := pass.ObjectOf(id).(*types.Func)
	return f
}

// calleeIs reports whether call statically invokes a function named name
// from a package whose short name is pkgName. Matching by package name
// rather than full path keeps the contract checks testable from golden
// mini-modules, where the import path prefix differs from the real module.
func calleeIs(pass *analysis.Pass, call *ast.CallExpr, pkgName, name string) bool {
	f := calleeFunc(pass, call)
	return f != nil && f.Name() == name && f.Pkg() != nil && f.Pkg().Name() == pkgName
}

// isMapRange reports whether rng iterates a map.
func isMapRange(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// rootIdent peels index, selector, paren, and star expressions down to the
// base identifier of an assignable expression, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether id's object is declared inside node (e.g.
// a loop-local variable). Identifiers that do not resolve, or resolve to
// objects with no position, count as outside.
func declaredWithin(pass *analysis.Pass, id *ast.Ident, node ast.Node) bool {
	obj := pass.ObjectOf(id)
	if obj == nil || !obj.Pos().IsValid() {
		return false
	}
	return obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// eachStmtList calls fn for every statement list under root — block
// bodies, switch cases, and select clauses — so callers can see a
// statement together with its following siblings.
func eachStmtList(root ast.Node, fn func(list []ast.Stmt)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BlockStmt:
			fn(x.List)
		case *ast.CaseClause:
			fn(x.Body)
		case *ast.CommClause:
			fn(x.Body)
		}
		return true
	})
}

// isFloat reports whether t's underlying type is a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
