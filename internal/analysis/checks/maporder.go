package checks

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"idyll/internal/analysis"
)

// Maporder flags range statements over maps whose bodies are sensitive to
// iteration order: appending to a slice, writing state declared outside the
// loop, scheduling events, invoking a function value, or returning a value
// derived from the iteration variables. Go randomizes map iteration per
// run, so any of these lets a hash seed leak into simulation results — the
// exact drift mode that would corrupt the jobs=1-vs-8 byte-identity gate
// and idylld's content-addressed cache.
//
// The canonical fix is recognized and allowed: a loop that only collects
// the keys (or key-derived records) into a slice which is then handed to
// package sort before any other use. Everything else iterates sorted keys.
var Maporder = &analysis.Analyzer{
	Name:     "maporder",
	CoreOnly: true,
	Doc: "flag order-sensitive bodies under range-over-map (appends, writes to " +
		"outer state, event scheduling, function-value calls, value-bearing " +
		"returns): map iteration order is randomized per run, so these leak the " +
		"hash seed into results; collect-and-sort the keys first",
	Run: runMaporder,
}

// runMaporder reports each order-sensitive map range, with the
// collect-keys-then-sort idiom recognized and skipped.
func runMaporder(pass *analysis.Pass) error {
	for _, f := range pass.Pkg.Files {
		eachStmtList(f, func(list []ast.Stmt) {
			for i, st := range list {
				if lab, ok := st.(*ast.LabeledStmt); ok {
					st = lab.Stmt
				}
				rng, ok := st.(*ast.RangeStmt)
				if !ok || !isMapRange(pass, rng) {
					continue
				}
				if isSortedKeyCollection(pass, rng, list[i+1:]) {
					continue
				}
				for _, v := range mapOrderViolations(pass, rng) {
					pass.Reportf(rng.For, "range over %s: %s; iterate sorted keys instead",
						types.TypeString(pass.TypeOf(rng.X), types.RelativeTo(pass.Pkg.Types)), v)
				}
			}
		})
	}
	return nil
}

// mapOrderViolations scans the loop body for order-sensitive effects. The
// walk stops at nested map ranges (they are checked on their own) but
// deliberately descends into func literals: a closure built per map entry
// observes iteration order through its capture and creation order.
func mapOrderViolations(pass *analysis.Pass, rng *ast.RangeStmt) []string {
	var out []string
	seen := make(map[string]bool)
	add := func(v string) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			if x != rng && isMapRange(pass, x) {
				return false
			}
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				return true
			}
			for i, lhs := range x.Lhs {
				if i < len(x.Rhs) && isAppendCall(x.Rhs[i]) {
					if root := rootIdent(lhs); root != nil && !declaredWithin(pass, root, rng) {
						add(fmt.Sprintf("body appends to %q in map order", root.Name))
					}
					continue
				}
				describeWrite(pass, rng, lhs, add)
			}
		case *ast.IncDecStmt:
			describeWrite(pass, rng, x.X, add)
		case *ast.CallExpr:
			describeCall(pass, rng, x, add)
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if referencesRangeVars(pass, rng, res) {
					add("body returns a value derived from the iteration variables (picks an arbitrary element)")
					break
				}
			}
		}
		return true
	})
	return out
}

func isAppendCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

// describeWrite records a violation if the written expression is rooted in
// a variable declared outside the range statement. Blank assignments and
// writes to loop-locals (including the key/value variables) are fine.
func describeWrite(pass *analysis.Pass, rng *ast.RangeStmt, lhs ast.Expr, add func(string)) {
	root := rootIdent(lhs)
	if root == nil {
		add("body writes through an expression whose target cannot be proven loop-local")
		return
	}
	if root.Name == "_" || declaredWithin(pass, root, rng) {
		return
	}
	add(fmt.Sprintf("body writes %q, declared outside the loop, in map order", root.Name))
}

// describeCall flags event scheduling and calls through function values.
// Direct calls to named functions are not flagged by themselves — if their
// arguments feed outer state the assignment checks catch it, and flagging
// every call would drown the signal.
func describeCall(pass *analysis.Pass, rng *ast.RangeStmt, call *ast.CallExpr, add func(string)) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Schedule" || fun.Sel.Name == "ScheduleAt" {
			add("body schedules events in map order")
		}
	case *ast.Ident:
		obj := pass.ObjectOf(fun)
		v, ok := obj.(*types.Var)
		if !ok {
			return // builtin (append/delete/len) or a named function
		}
		// A call through a function variable that flows in from outside
		// the body — a parameter, an outer variable, or the range value
		// itself — lets the callee observe iteration order. A closure
		// both defined and called inside the body cannot.
		if _, isSig := v.Type().Underlying().(*types.Signature); isSig && !declaredWithin(pass, fun, rng.Body) {
			add(fmt.Sprintf("body invokes function value %q in map order (iteration order escapes to the callee)", fun.Name))
		}
	}
}

// referencesRangeVars reports whether e mentions the range's key or value
// variable.
func referencesRangeVars(pass *analysis.Pass, rng *ast.RangeStmt, e ast.Expr) bool {
	vars := make(map[types.Object]bool)
	for _, kv := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := kv.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.ObjectOf(id); obj != nil {
				vars[obj] = true
			}
		}
	}
	if len(vars) == 0 {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && vars[pass.ObjectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}

// isSortedKeyCollection recognizes the canonical deterministic-iteration
// idiom: the loop body only appends to slices, and each such slice is
// handed to package sort (or slices) before any other use in the following
// statements.
func isSortedKeyCollection(pass *analysis.Pass, rng *ast.RangeStmt, rest []ast.Stmt) bool {
	var targets []types.Object
	for _, st := range rng.Body.List {
		asg, ok := st.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 || !isAppendCall(asg.Rhs[0]) {
			return false
		}
		root := rootIdent(asg.Lhs[0])
		if root == nil {
			return false
		}
		obj := pass.ObjectOf(root)
		if obj == nil {
			return false
		}
		targets = append(targets, obj)
	}
	if len(targets) == 0 {
		return false
	}
	for _, tgt := range targets {
		if !sortedBeforeUse(pass, tgt, rest) {
			return false
		}
	}
	return true
}

// sortedBeforeUse reports whether the first following statement that
// mentions obj is a sort.X(...) / slices.X(...) call over it.
func sortedBeforeUse(pass *analysis.Pass, obj types.Object, rest []ast.Stmt) bool {
	for _, st := range rest {
		if !mentions(pass, st, obj) {
			continue
		}
		expr, ok := st.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := expr.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
			return false
		}
		for _, arg := range call.Args {
			if root := rootIdent(arg); root != nil && pass.ObjectOf(root) == obj {
				return true
			}
		}
		return false
	}
	return false // never sorted (and never used — conservatively not the idiom)
}

func mentions(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
