// Package analysis implements hdlint, a stdlib-only static-analysis driver
// that encodes the repo's load-bearing invariants as deterministic CI
// checks. Every major bug class this codebase has shipped — the class-vector
// read/mutate race, the torn-checkpoint aliasing, the stale norm cache that
// motivated the version counter — violated an invariant that `-race` only
// catches when a test interleaves the right goroutines. The first four
// analyzers here catch the same mistakes syntactically, on every build;
// the fifth keeps the internal packages' API down to what the program
// uses:
//
//   - locksafety: fields marked //hd:guarded (HVClassifier.Class, the
//     quantization plane memory) may be accessed directly only from the
//     file that declares them; everyone else goes through the accessor API.
//   - hotalloc: functions marked //hd:hotpath must be syntactically
//     allocation-free — no append/make/new, no map or slice literals, no
//     closures, no fmt, no string concatenation.
//   - versionbump: a function that writes guarded class memory must bump
//     the struct's //hd:version counter on the same path (directly, or by
//     calling a method that does), unless it is itself marked //hd:mutator.
//   - snapshotalias: exported methods must not return internal
//     []float64/[]uint64 backing memory without a copy.
//   - deadexport: an exported identifier declared under internal/ must be
//     reachable from live non-test code of the module or of a nested
//     module that replaces it (bench/).
//
// A finding is suppressed with `//hdlint:ignore <analyzer> <reason>` on the
// offending line or the line above; the reason is mandatory.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one invariant violation at a source position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named invariant check run over a typechecked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pass *Pass) []Finding

	// SkipTests drops findings positioned in _test.go files. The lock- and
	// snapshot-discipline analyzers set it: their invariants protect
	// concurrent serving, while tests legitimately construct models and
	// poke internals from quiescent single-goroutine states. hotalloc
	// leaves it unset — a marked function is hot wherever it is declared.
	SkipTests bool
}

// Pass hands an analyzer one package plus the program-wide marker tables.
type Pass struct {
	Prog    *Program
	Pkg     *Package
	Markers *Markers
}

func (p *Pass) position(pos token.Pos) token.Position {
	return p.Prog.Fset.Position(pos)
}

// Analyzers is the full hdlint suite in reporting order.
var Analyzers = []*Analyzer{LockSafety, HotAlloc, VersionBump, SnapshotAlias, DeadExport}

// ByName resolves analyzer names ("locksafety,hotalloc") to analyzers.
func ByName(names []string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range names {
		found := false
		for _, a := range Analyzers {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
	}
	return out, nil
}

// Run executes the analyzers over the requested packages, applies
// //hdlint:ignore suppressions, and returns the surviving findings sorted
// by position. Malformed ignore directives in the requested packages are
// themselves findings: a suppression without an analyzer name and a reason
// is a suppression nobody can audit.
func Run(prog *Program, pkgs []*Package, analyzers []*Analyzer) []Finding {
	mk := CollectMarkers(prog)
	var out []Finding
	seenFile := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			name := prog.Fset.Position(f.Pos()).Filename
			if seenFile[name] {
				continue
			}
			seenFile[name] = true
			out = append(out, mk.malformed[name]...)
		}
		for _, a := range analyzers {
			for _, f := range a.Run(&Pass{Prog: prog, Pkg: p, Markers: mk}) {
				if a.SkipTests && strings.HasSuffix(f.Pos.Filename, "_test.go") {
					continue
				}
				if mk.suppressed(f) {
					continue
				}
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// chainInfo unwraps a selector/index/slice/deref chain, returning the root
// identifier (nil when the chain is rooted at a call result or literal) and
// every struct field selected along the way, outermost first.
func chainInfo(info *types.Info, e ast.Expr) (root *ast.Ident, fields []*types.Var) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil, fields
			}
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok {
					fields = append(fields, v)
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			return x, fields
		default:
			return nil, fields
		}
	}
}

// rootVar resolves an identifier to the variable it names, nil for
// package names, functions, and types.
func rootVar(info *types.Info, id *ast.Ident) *types.Var {
	if id == nil {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// funcObj resolves the called function of a call expression, through
// method values and qualified identifiers. Returns nil for builtins,
// conversions, and indirect calls through function values.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// containsNumSlice reports whether t contains a []float64 or []uint64
// reachable through named types and nested slices — the backing-memory
// shapes the snapshotalias analyzer protects. Pointers, maps, structs and
// arrays terminate the search: returning those either copies the data or
// is an explicit sharing decision the analyzer does not second-guess.
func containsNumSlice(t types.Type) bool {
	seen := map[types.Type]bool{}
	var rec func(types.Type) bool
	rec = func(t types.Type) bool {
		if t == nil || seen[t] {
			return false
		}
		seen[t] = true
		if sl, ok := t.Underlying().(*types.Slice); ok {
			elem := sl.Elem()
			if b, ok := elem.Underlying().(*types.Basic); ok {
				return b.Kind() == types.Float64 || b.Kind() == types.Uint64
			}
			return rec(elem)
		}
		return false
	}
	return rec(t)
}
