package analysis

import (
	"fmt"
	"go/types"
	"strings"
)

// The interprocedural taint engine. Each enrolled analyzer (one with a
// Sources hook) contributes nondeterminism source sites; the engine finds
// them in every type-checked NON-core module function, propagates the taint
// backwards over the static call graph, and reports each call site where a
// core-package function's chain crosses into the tainted non-core region —
// with the full chain in the message, so a time.Now three helpers away is
// as loud as a direct import. Sources inside core packages are deliberately
// not re-reported here: the per-package checks already flag them at the
// source line, and the golden tests pin that the direct-import case and the
// chained case surface under the same check name.
//
// A non-core function is tainted by what it can reach, not by the package
// it lives in — a pure helper in internal/config stays callable from the
// core.

// maxChain caps the rendered call chain. Deeper chains are still reported;
// the tail is elided so one pathological diagnostic cannot flood the log.
const maxChain = 12

func runTaint(analyzers []*Analyzer, prog *Program) []Diagnostic {
	var out []Diagnostic
	funcs := prog.SortedFuncs()
	module := prog.Loader.Module
	for _, a := range analyzers {
		if a.Sources == nil {
			continue
		}
		out = append(out, taintOne(a, prog, funcs, module)...)
	}
	return out
}

type taintState struct {
	dist int     // hops to the nearest source-bearing function (0 = contains one)
	src  *Source // set when dist == 0
}

func taintOne(a *Analyzer, prog *Program, funcs []*FuncInfo, module string) []Diagnostic {
	// Pass 1: source sites, non-core functions only.
	state := make(map[*types.Func]*taintState)
	for _, fi := range funcs {
		rel := relOf(module, fi.Pkg.Path)
		if IsCore(rel) {
			continue
		}
		pass := &Pass{Analyzer: a, Fset: fi.Pkg.Fset, Pkg: fi.Pkg}
		srcs := a.Sources(pass, fi.Decl)
		if len(srcs) == 0 {
			continue
		}
		best := srcs[0]
		for _, s := range srcs[1:] {
			if s.Pos < best.Pos {
				best = s
			}
		}
		s := best
		state[fi.Obj] = &taintState{dist: 0, src: &s}
	}
	if len(state) == 0 {
		return nil
	}

	// Pass 2: shortest hop counts by relaxation over the (small) graph.
	// Deterministic: funcs and each Calls list are sorted, and a distance
	// only ever improves strictly.
	index := make(map[*types.Func]*FuncInfo, len(funcs))
	for _, fi := range funcs {
		index[fi.Obj] = fi
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			for _, call := range fi.Calls {
				callee, ok := state[call.Callee]
				if !ok {
					continue
				}
				if cur, ok := state[fi.Obj]; !ok || callee.dist+1 < cur.dist {
					state[fi.Obj] = &taintState{dist: callee.dist + 1}
					changed = true
				}
			}
		}
	}

	// Pass 3: report every call site where a core function steps into the
	// tainted non-core region.
	var out []Diagnostic
	for _, fi := range funcs {
		if !IsCore(relOf(module, fi.Pkg.Path)) {
			continue
		}
		for _, call := range fi.Calls {
			if _, tainted := state[call.Callee]; !tainted {
				continue
			}
			if IsCore(relOf(module, call.Callee.Pkg().Path())) {
				continue // that function reports its own crossing
			}
			chain, src := buildChain(prog, index, state, fi.Obj, call.Callee)
			out = append(out, Diagnostic{
				Check:    a.Name,
				Position: prog.Position(call.Pos),
				Message: fmt.Sprintf("call chain escapes the deterministic core: %s: %s (%s)",
					strings.Join(chain, " → "), src.Msg, prog.Position(src.Pos)),
			})
		}
	}
	return out
}

// buildChain walks the taint gradient from the core entry through callee
// down to the function that contains the source, returning the labelled
// chain and the source site. Each step picks the earliest call whose callee
// is strictly closer to a source, so the rendered chain is a real shortest
// path and stable across runs.
func buildChain(prog *Program, index map[*types.Func]*FuncInfo, state map[*types.Func]*taintState, entry, callee *types.Func) ([]string, *Source) {
	chain := []string{prog.FuncLabel(entry)}
	cur := callee
	for range [maxChain]struct{}{} {
		chain = append(chain, prog.FuncLabel(cur))
		st := state[cur]
		if st.dist == 0 {
			return chain, st.src
		}
		fi := index[cur]
		var next *types.Func
		for _, call := range fi.Calls {
			if cs, ok := state[call.Callee]; ok && cs.dist == st.dist-1 {
				next = call.Callee
				break
			}
		}
		if next == nil {
			break // unreachable: dist > 0 implies a closer callee exists
		}
		cur = next
	}
	chain = append(chain, "…")
	st := state[cur]
	if st.src != nil {
		return chain, st.src
	}
	return chain, &Source{Pos: index[cur].Decl.Pos(), Msg: "chain deeper than the render cap"}
}
