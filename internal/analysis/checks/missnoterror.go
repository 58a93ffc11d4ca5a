package checks

import (
	"go/ast"
	"go/types"

	"idyll/internal/analysis"
)

// Missnoterror enforces the degrade-to-miss contract on the disk tiers: a
// result-store read that fails — file absent, envelope unverifiable,
// decode broken — must be reported as a cache miss, never surfaced as an
// error. The caller's recovery path is always the same
// (recompute and re-store), so propagating the error upward only converts a
// self-healing condition into a request failure; the chaos gate depends on
// corrupt blobs being quarantined and recomputed, not 500'd. Mechanically:
// inside the scoped packages, an error value produced by os.ReadFile,
// os.Open, or integrity.Unwrap must not appear in a return statement
// (directly or rewrapped via fmt.Errorf); log it, count it, and fall
// through to the miss path instead.
var Missnoterror = &analysis.Analyzer{
	Name: "missnoterror",
	Packages: []string{
		"internal/service",
		"internal/blobstore",
	},
	Doc: "forbid returning disk-read errors from the blob store and the " +
		"service layer: a failed read (missing file, bad envelope, decode " +
		"error) must degrade to a cache miss so the caller recomputes; " +
		"surfacing it turns a self-healing condition into a request failure",
	Run: runMissnoterror,
}

func runMissnoterror(pass *analysis.Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMissNotError(pass, fd)
		}
	}
	return nil
}

func checkMissNotError(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Pass 1: error-typed variables whose value comes from a disk read.
	diskErrs := make(map[types.Object]string)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 {
			return true
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		src := diskReadName(pass, call)
		if src == "" {
			return true
		}
		// The error is by convention the last result.
		last := asg.Lhs[len(asg.Lhs)-1]
		id, ok := last.(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := pass.ObjectOf(id)
		if obj == nil || !isErrorType(obj.Type()) {
			return true
		}
		diskErrs[obj] = src
		return true
	})
	if len(diskErrs) == 0 {
		return
	}
	// Pass 2: flag returns that mention one of those error values, directly
	// or nested inside a wrapping call like fmt.Errorf.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return true // closures share the outer scope; keep scanning
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			ast.Inspect(res, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				if src, hit := diskErrs[pass.ObjectOf(id)]; hit {
					pass.Reportf(id.Pos(), "disk-read error from %s escapes as a return value: the disk tier must degrade to a miss (log/count it and fall through) so the caller recomputes instead of failing", src)
					return false
				}
				return true
			})
		}
		return true
	})
}

// diskReadName names the disk-read operation a call performs, or "" if it
// is not one. Matching is by package short name so golden mini-modules can
// exercise the check with their own integrity package.
func diskReadName(pass *analysis.Pass, call *ast.CallExpr) string {
	switch {
	case calleeIs(pass, call, "os", "ReadFile"):
		return "os.ReadFile"
	case calleeIs(pass, call, "os", "Open"):
		return "os.Open"
	case calleeIs(pass, call, "integrity", "Unwrap"):
		return "integrity.Unwrap"
	}
	return ""
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
