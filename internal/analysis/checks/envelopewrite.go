package checks

import (
	"go/ast"
	"go/types"

	"idyll/internal/analysis"
)

// Envelopewrite enforces the at-rest integrity contract the chaos gate
// relies on: every blob the blob store (results and checkpoints) or the
// service layer writes to disk must carry the IDYLLSUM checksum envelope,
// because the read path treats anything unverifiable as damage
// (quarantine + recompute). A write
// path that skips integrity.Wrap would make its own output look corrupt to
// the next process — or worse, ride on the legacy-blob tolerance and skip
// verification entirely. The check is function-granular: a function that
// puts bytes on disk (os.WriteFile, or Write/WriteString/WriteAt on an
// *os.File) must itself call integrity.Wrap; helpers that receive
// pre-wrapped bytes from a caller need an //idyllvet:ignore envelopewrite
// directive stating exactly that.
var Envelopewrite = &analysis.Analyzer{
	Name: "envelopewrite",
	Packages: []string{
		"internal/service",
		"internal/blobstore",
	},
	Doc: "require every disk write in the blob store and the service " +
		"layer to flow through integrity.Wrap: the read side quarantines " +
		"anything that fails envelope verification, so an unwrapped blob is " +
		"either self-inflicted corruption or a silent hole in the " +
		"end-to-end integrity story",
	Run: runEnvelopewrite,
}

func runEnvelopewrite(pass *analysis.Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var writes []ast.Expr
			wraps := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch {
				case calleeIs(pass, call, "integrity", "Wrap"):
					wraps = true
				case calleeIs(pass, call, "os", "WriteFile"), isOSFileWrite(pass, call):
					writes = append(writes, call.Fun)
				}
				return true
			})
			if wraps {
				continue
			}
			for _, w := range writes {
				pass.Reportf(w.Pos(), "disk write without integrity.Wrap in this function: at-rest blobs must carry the checksum envelope, or the read side will quarantine them (or skip verification) on the next load")
			}
		}
	}
	return nil
}

// isOSFileWrite reports whether call is a Write/WriteString/WriteAt method
// call on an *os.File (the temp-file half of the write-then-rename idiom).
func isOSFileWrite(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteAt":
	default:
		return false
	}
	t := pass.TypeOf(sel.X)
	if t == nil {
		return false
	}
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "File" && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}
