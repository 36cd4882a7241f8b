package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc keeps //hd:hotpath functions syntactically allocation-free.
// These are the encode and scoring kernels whose throughput the benchmark
// guard defends; a stray append or fmt call inside one turns a
// zero-allocation batch loop into a GC treadmill. Scratch space must
// arrive via parameters or pools (plain calls are fine — getLookup/putLookup
// pass), so the forbidden set is purely syntactic: append/make/new, slice
// and map literals, closures, fmt calls, and string concatenation.
// Fixed-size array literals are allowed: they live on the stack.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//hd:hotpath functions must be syntactically allocation-free",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) []Finding {
	var out []Finding
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			if fn == nil || !pass.Markers.Hotpath[fn] {
				continue
			}
			report := func(pos token.Pos, format string, args ...any) {
				out = append(out, Finding{
					Analyzer: "hotalloc",
					Pos:      pass.position(pos),
					Message:  fmt.Sprintf("hotpath %s %s", fd.Name.Name, fmt.Sprintf(format, args...)),
				})
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					switch fun := ast.Unparen(x.Fun).(type) {
					case *ast.Ident:
						if b, ok := info.Uses[fun].(*types.Builtin); ok {
							switch b.Name() {
							case "append", "make", "new":
								report(x.Pos(), "calls %s, which allocates", b.Name())
							}
						}
					case *ast.SelectorExpr:
						if id, ok := fun.X.(*ast.Ident); ok {
							if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
								report(x.Pos(), "calls fmt.%s, which allocates", fun.Sel.Name)
							}
						}
					}
				case *ast.CompositeLit:
					switch info.TypeOf(x).Underlying().(type) {
					case *types.Slice:
						report(x.Pos(), "builds a slice literal, which allocates")
					case *types.Map:
						report(x.Pos(), "builds a map literal, which allocates")
					}
				case *ast.FuncLit:
					report(x.Pos(), "declares a closure, which allocates; hoist it to a named function")
				case *ast.BinaryExpr:
					if x.Op == token.ADD && isStringType(info.TypeOf(x)) {
						report(x.Pos(), "concatenates strings, which allocates")
					}
				case *ast.AssignStmt:
					if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(info.TypeOf(x.Lhs[0])) {
						report(x.Pos(), "concatenates strings, which allocates")
					}
				}
				return true
			})
		}
	}
	return out
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
