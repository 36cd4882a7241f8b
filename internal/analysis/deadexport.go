package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadExport keeps the internal packages free of API nobody uses: every
// exported func, method, type, var or const declared in a non-test file
// under internal/ must be reachable from live, non-test code.
//
// Live code starts at every non-test file outside internal/ (commands,
// examples, the root facade), at every package of a nested module whose
// go.mod replaces this one with its directory (bench/), at init functions
// and blank declarations, and at every declaration an ignore directive
// exempts, since the directive names an outside user. It grows through the declarations
// live code references, so a reference from a test, from the declaration
// itself or from other dead code keeps nothing alive. A method is also
// live when its type is live and it implements a module interface method
// that live code calls, or an interface of the standard library (String,
// Error, UnmarshalBinary), whose callers the module cannot see. Exported
// struct fields and interface methods are outside the rule.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "exported identifiers under internal/ need a reference from live non-test code",
	Run:  runDeadExport,
}

func runDeadExport(pass *Pass) []Finding {
	p := pass.Pkg
	if p.Nested || strings.HasSuffix(p.Path, "_test") || !isInternal(pass.Prog.ModulePath, p.Path) {
		return nil
	}
	live := pass.Prog.liveObjects(pass.Markers)
	var out []Finding
	for _, f := range p.Files {
		if isTestFile(pass.Prog.Fset, f) {
			continue
		}
		for _, d := range topDecls(f) {
			obj := p.Info.Defs[d.name]
			if obj == nil || !d.name.IsExported() || live[obj] {
				continue
			}
			out = append(out, Finding{
				Analyzer: "deadexport",
				Pos:      pass.position(d.name.Pos()),
				Message: fmt.Sprintf("%s is not referenced by live non-test code: delete it, move it into the tests that use it, or name its outside user in //hdlint:ignore deadexport <reason>",
					describe(obj)),
			})
		}
	}
	return out
}

// isInternal reports whether the package sits under an internal directory
// of the module.
func isInternal(modPath, pkgPath string) bool {
	rel := strings.TrimPrefix(pkgPath, modPath)
	return strings.Contains(rel+"/", "/internal/")
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// topDecl is one name a file declares at package level — func, method,
// type, var or const — with the syntax to walk when it turns live: its
// FuncDecl, TypeSpec or ValueSpec, plus the spec above for a const spec
// that repeats it implicitly.
type topDecl struct {
	name  *ast.Ident
	nodes []ast.Node
}

func topDecls(f *ast.File) []topDecl {
	var out []topDecl
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			out = append(out, topDecl{d.Name, []ast.Node{d}})
		case *ast.GenDecl:
			var last *ast.ValueSpec
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					out = append(out, topDecl{s.Name, []ast.Node{s}})
				case *ast.ValueSpec:
					nodes := []ast.Node{s}
					if d.Tok == token.CONST && s.Type == nil && len(s.Values) == 0 && last != nil {
						nodes = append(nodes, last)
					} else {
						last = s
					}
					for _, name := range s.Names {
						out = append(out, topDecl{name, nodes})
					}
				}
			}
		}
	}
	return out
}

func describe(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			return fmt.Sprintf("method %s.%s", recvName(recv.Type()), o.Name())
		}
		return "func " + o.Name()
	case *types.TypeName:
		return "type " + o.Name()
	case *types.Const:
		return "const " + o.Name()
	}
	return "var " + obj.Name()
}

func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// liveObjects computes, once per program, the module declarations that
// live code reaches.
func (prog *Program) liveObjects(mk *Markers) map[types.Object]bool {
	if prog.live == nil {
		prog.live = newReach(prog, mk).run()
	}
	return prog.live
}

// reach is the reachability walk behind liveObjects.
type reach struct {
	decls map[types.Object]declSite // package-level declarations of the module's internal packages
	live  map[types.Object]bool
	queue []types.Object

	// called holds the interface methods live code selects; std holds the
	// standard library's interfaces. A live type implementing one makes
	// the matching methods live.
	called map[*types.Func]bool
	std    []*types.Interface
	named  []*types.TypeName // the implementer types of decls
}

// declSite is a declaration's syntax and the type information to read it
// with.
type declSite struct {
	info  *types.Info
	nodes []ast.Node
}

func newReach(prog *Program, mk *Markers) *reach {
	r := &reach{
		decls:  map[types.Object]declSite{},
		live:   map[types.Object]bool{},
		called: map[*types.Func]bool{},
		std:    stdInterfaces(prog),
	}
	var roots []declSite
	var exempt []types.Object // kept by an ignore directive: live, with what they reference
	for _, p := range prog.Packages {
		internal := !p.Nested && isInternal(prog.ModulePath, p.Path)
		for _, f := range p.Files {
			if isTestFile(prog.Fset, f) {
				continue
			}
			if !internal {
				roots = append(roots, declSite{p.Info, []ast.Node{f}})
				continue
			}
			for _, d := range topDecls(f) {
				site := declSite{p.Info, d.nodes}
				obj := p.Info.Defs[d.name]
				fd, isFunc := d.nodes[0].(*ast.FuncDecl)
				if obj == nil || d.name.Name == "_" || isFunc && fd.Recv == nil && d.name.Name == "init" {
					roots = append(roots, site)
					continue
				}
				r.decls[obj] = site
				if tn, ok := obj.(*types.TypeName); ok && implementer(tn) {
					r.named = append(r.named, tn)
				}
				if mk.suppressed(Finding{Analyzer: "deadexport", Pos: prog.Fset.Position(d.name.Pos())}) {
					exempt = append(exempt, obj)
				}
			}
		}
	}
	for _, site := range roots {
		r.walk(site)
	}
	for _, obj := range exempt {
		r.mark(obj)
	}
	return r
}

// implementer reports a defined, non-generic, non-interface type: one
// whose methods can implement an interface.
func implementer(tn *types.TypeName) bool {
	n, ok := tn.Type().(*types.Named)
	if !ok || tn.IsAlias() || n.TypeParams().Len() > 0 {
		return false
	}
	_, iface := n.Underlying().(*types.Interface)
	return !iface
}

func (r *reach) run() map[types.Object]bool {
	for {
		for len(r.queue) > 0 {
			obj := r.queue[len(r.queue)-1]
			r.queue = r.queue[:len(r.queue)-1]
			r.walk(r.decls[obj])
		}
		r.markImplementations()
		if len(r.queue) == 0 {
			return r.live
		}
	}
}

func (r *reach) walk(site declSite) {
	for _, n := range site.nodes {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := site.info.Uses[id]; obj != nil {
					r.mark(obj)
				}
			}
			return true
		})
	}
}

func (r *reach) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		if ifaceOf(o) != nil {
			r.called[o] = true
			return
		}
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if _, ok := r.decls[obj]; !ok || r.live[obj] {
		return
	}
	r.live[obj] = true
	r.queue = append(r.queue, obj)
}

// ifaceOf returns the interface that declares method fn, nil for a
// concrete method or a function.
func ifaceOf(fn *types.Func) *types.Interface {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	it, _ := recv.Type().Underlying().(*types.Interface)
	return it
}

// markImplementations marks the methods by which live types implement a
// called module interface method or a standard-library interface.
func (r *reach) markImplementations() {
	for _, tn := range r.named {
		if !r.live[tn] {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		for fn := range r.called {
			if types.Implements(ptr, ifaceOf(fn)) {
				r.markMethod(ptr, tn.Pkg(), fn.Name())
			}
		}
		for _, it := range r.std {
			if types.Implements(ptr, it) {
				for i := 0; i < it.NumMethods(); i++ {
					r.markMethod(ptr, tn.Pkg(), it.Method(i).Name())
				}
			}
		}
	}
}

func (r *reach) markMethod(t types.Type, pkg *types.Package, name string) {
	if obj, _, _ := types.LookupFieldOrMethod(t, false, pkg, name); obj != nil {
		r.mark(obj)
	}
}

// stdInterfaces collects the exported, non-generic interfaces with methods
// declared by the non-internal standard-library packages the program
// imports, directly or not, plus error.
func stdInterfaces(prog *Program) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	module := map[*types.Package]bool{}
	for _, p := range prog.Packages {
		module[p.Pkg] = true
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
		if module[pkg] || strings.Contains("/"+pkg.Path()+"/", "/internal/") || strings.HasPrefix(pkg.Path(), "vendor/") {
			return
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				if it, ok := n.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
	}
	for _, p := range prog.Packages {
		visit(p.Pkg)
	}
	return out
}
