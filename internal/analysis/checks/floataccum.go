package checks

import (
	"go/ast"
	"go/token"

	"idyll/internal/analysis"
)

// Floataccum flags order-sensitive floating-point accumulation inside map
// iteration. Float addition is not associative: summing the same multiset
// of values in two different orders can round differently, so an
// accumulation keyed off randomized map order can flip the last bits of a
// reported figure between runs — precisely the drift the byte-identity
// gates exist to catch. Integer accumulation is exact and commutative, so
// it is left to maporder's broader shared-state rule; float accumulation
// gets its own check, which names the rounding hazard.
var Floataccum = &analysis.Analyzer{
	Name:     "floataccum",
	CoreOnly: true,
	Doc: "flag float64/float32 += (or x = x + y) under range-over-map: float " +
		"addition is not associative, so randomized iteration order can change " +
		"rounding between runs; iterate sorted keys so the summation order is " +
		"fixed",
	Run: runFloataccum,
}

// runFloataccum finds every map range and reports its order-sensitive
// float accumulations.
func runFloataccum(pass *analysis.Pass) error {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if rng, ok := n.(*ast.RangeStmt); ok && isMapRange(pass, rng) {
				scanFloatAccum(pass, rng)
			}
			return true
		})
	}
	return nil
}

func scanFloatAccum(pass *analysis.Pass, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			// Nested map ranges are scanned by their own visit; without
			// this cut each site inside would be reported once per
			// enclosing loop.
			if isMapRange(pass, x) {
				return false
			}
		case *ast.AssignStmt:
			if len(x.Lhs) != 1 || len(x.Rhs) != 1 {
				return true
			}
			lhs := x.Lhs[0]
			if !isFloat(pass.TypeOf(lhs)) || isLoopLocal(pass, rng, lhs) {
				return true
			}
			switch x.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN:
				pass.Reportf(x.TokPos, "order-sensitive float accumulation under range-over-map: float addition is not associative; iterate sorted keys")
			case token.ASSIGN:
				if isSelfAccum(pass, lhs, x.Rhs[0]) {
					pass.Reportf(x.TokPos, "order-sensitive float accumulation (x = x ± ...) under range-over-map: float addition is not associative; iterate sorted keys")
				}
			}
		}
		return true
	})
}

// isLoopLocal reports whether the written expression is rooted in a
// variable declared inside the range statement (accumulating into a
// per-iteration temporary is harmless).
func isLoopLocal(pass *analysis.Pass, rng *ast.RangeStmt, lhs ast.Expr) bool {
	root := rootIdent(lhs)
	return root != nil && (root.Name == "_" || declaredWithin(pass, root, rng))
}

// isSelfAccum matches `x = x + e` / `x = x - e` / `x = e + x` by comparing
// the root identifiers of both sides of a top-level binary add.
func isSelfAccum(pass *analysis.Pass, lhs, rhs ast.Expr) bool {
	bin, ok := rhs.(*ast.BinaryExpr)
	if !ok || (bin.Op != token.ADD && bin.Op != token.SUB) {
		return false
	}
	lroot := rootIdent(lhs)
	if lroot == nil {
		return false
	}
	lobj := pass.ObjectOf(lroot)
	if lobj == nil {
		return false
	}
	for _, side := range []ast.Expr{bin.X, bin.Y} {
		if root := rootIdent(side); root != nil && pass.ObjectOf(root) == lobj {
			return true
		}
	}
	return false
}
