package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one typechecked package: its syntax, type information, and
// the directory it came from. External test packages (package foo_test)
// load as their own Package with an "_test" path suffix.
type Package struct {
	Path  string // import path ("boosthd/internal/infer", "..._test")
	Dir   string // absolute directory
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Nested marks a package of a nested module whose go.mod replaces
	// this one (bench/). It loads so that its references count for
	// deadexport; no pattern selects it for analysis.
	Nested bool
}

// Program is a load of the whole module: every package typechecked with a
// shared FileSet so cross-package object identity holds (a *types.Var for
// HVClassifier.Class is the same object no matter which package reads it).
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	RootDir    string
	Packages   []*Package // dependency order; external tests follow their base
	byPath     map[string]*Package
	live       map[types.Object]bool // deadexport's reachable set, built on first use
}

// Load typechecks every package of the module containing dir and returns
// the program plus the subset matching patterns ("./...", "./internal/infer",
// "internal/serve/..."). Test files are included: in-package _test.go files
// join their package; external _test packages load separately. Directories
// named testdata are skipped, mirroring the go tool, and so is every nested
// module, except that a nested module whose go.mod replaces this one with
// its directory loads as Nested packages.
func Load(dir string, patterns []string) (*Program, []*Package, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, nil, err
	}
	all, nested, err := scanDirs(root)
	if err != nil {
		return nil, nil, err
	}
	requested, err := resolvePatterns(root, dir, patterns, all)
	if err != nil {
		return nil, nil, err
	}
	mods := []module{{dir: root, path: modPath, rels: all}}
	for _, rel := range nested {
		m, ok, err := replacingModule(root, modPath, filepath.Join(root, rel))
		if err != nil {
			return nil, nil, err
		}
		if ok {
			mods = append(mods, m)
		}
	}
	prog, err := loadPackages(mods)
	if err != nil {
		return nil, nil, err
	}
	var sel []*Package
	for _, p := range prog.Packages {
		if p.Nested {
			continue
		}
		// requested holds bare directory keys ("" for the root, else the
		// slash-relative dir); reduce the import path back to that form.
		key := strings.TrimSuffix(p.Path, "_test")
		if key == modPath {
			key = ""
		} else {
			key = strings.TrimPrefix(key, modPath+"/")
		}
		if requested[key] {
			sel = append(sel, p)
		}
	}
	return prog, sel, nil
}

func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			if mp, _ := parseGoMod(data); mp != "" {
				return d, mp, nil
			}
			return "", "", fmt.Errorf("analysis: no module line in %s/go.mod", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", abs)
		}
	}
}

// parseGoMod reads the module path and the replace directives (old module
// path to replacement, versions dropped) of a go.mod file.
func parseGoMod(data []byte) (modPath string, replace map[string]string) {
	replace = map[string]string{}
	add := func(spec string) {
		from, to, ok := strings.Cut(spec, "=>")
		if f, t := strings.Fields(from), strings.Fields(to); ok && len(f) > 0 && len(t) > 0 {
			replace[f[0]] = t[0]
		}
	}
	inReplace := false
	for _, line := range strings.Split(string(data), "\n") {
		line, _, _ = strings.Cut(line, "//")
		line = strings.TrimSpace(line)
		switch {
		case inReplace && line == ")":
			inReplace = false
		case inReplace:
			add(line)
		case line == "replace (":
			inReplace = true
		case strings.HasPrefix(line, "replace "):
			add(strings.TrimPrefix(line, "replace "))
		case strings.HasPrefix(line, "module "):
			modPath = strings.TrimSpace(strings.TrimPrefix(line, "module "))
			if q, err := strconv.Unquote(modPath); err == nil {
				modPath = q
			}
		}
	}
	return modPath, replace
}

// replacingModule reads the nested module at dir and reports it when its
// go.mod replaces the root module with the root's own directory, the way
// bench/ builds against the working tree.
func replacingModule(root, rootPath, dir string) (module, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return module{}, false, err
	}
	modPath, replace := parseGoMod(data)
	to, ok := replace[rootPath]
	if !ok || modPath == "" || !(filepath.IsAbs(to) || strings.HasPrefix(to, "./") || strings.HasPrefix(to, "../")) {
		return module{}, false, nil
	}
	if !filepath.IsAbs(to) {
		to = filepath.Join(dir, to)
	}
	if filepath.Clean(to) != filepath.Clean(root) {
		return module{}, false, nil
	}
	rels, _, err := scanDirs(dir)
	if err != nil {
		return module{}, false, err
	}
	return module{dir: dir, path: modPath, rels: rels, nested: true}, true, nil
}

// scanDirs returns every directory under root (as a relative path, "." for
// the root itself) that holds at least one .go file, skipping testdata,
// hidden, and underscore-prefixed directories. Directories holding a
// go.mod of their own are nested modules: they are returned apart and not
// descended into.
func scanDirs(root string) (dirs, nested []string, err error) {
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					rel, err := filepath.Rel(root, path)
					if err != nil {
						return err
					}
					nested = append(nested, rel)
					return filepath.SkipDir
				}
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			if len(dirs) == 0 || dirs[len(dirs)-1] != rel {
				dirs = append(dirs, rel)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(dirs)
	return dirs, nested, nil
}

func resolvePatterns(root, dir string, patterns []string, all []string) (map[string]bool, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	isDir := map[string]bool{}
	for _, d := range all {
		isDir[d] = true
	}
	out := map[string]bool{}
	for _, pat := range patterns {
		recursive := false
		if p, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, p
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		rel, err := filepath.Rel(root, filepath.Join(abs, pat))
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("analysis: pattern %q escapes module root", pat)
		}
		matched := false
		for _, d := range all {
			if d == rel || (recursive && (rel == "." || strings.HasPrefix(d, rel+string(filepath.Separator)))) {
				out[importPathFor("", d)] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("analysis: pattern %q matched no packages", pat)
		}
	}
	return out, nil
}

// importPathFor maps a relative directory to its import path; with an
// empty module path it returns the bare relative key used for matching.
func importPathFor(modPath, rel string) string {
	rel = filepath.ToSlash(rel)
	if rel == "." {
		return modPath
	}
	if modPath == "" {
		return rel
	}
	return modPath + "/" + rel
}

// module is one module's package directories, relative to its root dir.
// Packages of a nested module load as Nested.
type module struct {
	dir, path string
	rels      []string
	nested    bool
}

// rawPkg is one directory's parsed syntax before typechecking.
type rawPkg struct {
	dir      string
	path     string
	files    []*ast.File // package files + in-package tests
	extFiles []*ast.File // external test package files
	deps     []string    // module import paths (incl. test-file imports)
	extDeps  []string
}

func loadPackages(mods []module) (*Program, error) {
	// The source importer typechecks stdlib dependencies from GOROOT
	// source; cgo-tainted packages (net, os/user) must take their pure-Go
	// fallback for that to work without invoking the cgo tool.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	prog := &Program{Fset: fset, ModulePath: mods[0].path, RootDir: mods[0].dir, byPath: map[string]*Package{}}
	inModule := func(ip string) bool {
		for _, m := range mods {
			if ip == m.path || strings.HasPrefix(ip, m.path+"/") {
				return true
			}
		}
		return false
	}

	// A directory yields up to two typecheck units: the package itself
	// (with its in-package test files) and, separately, an external _test
	// package. They must be distinct nodes in the dependency graph: an
	// external test may import packages that themselves import the base,
	// which is only a cycle if the two are conflated.
	units := map[string]*unit{}
	for _, m := range mods {
		for _, rel := range m.rels {
			rp, err := parseDir(fset, filepath.Join(m.dir, rel), importPathFor(m.path, rel), inModule)
			if err != nil {
				return nil, err
			}
			if rp == nil {
				continue
			}
			units[rp.path] = &unit{dir: rp.dir, path: rp.path, files: rp.files, deps: rp.deps, nested: m.nested}
			if len(rp.extFiles) > 0 {
				units[rp.path+"_test"] = &unit{
					dir: rp.dir, path: rp.path + "_test", files: rp.extFiles,
					deps: append(rp.extDeps, rp.path), nested: m.nested,
				}
			}
		}
	}

	order, err := topoSort(units)
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{
		src:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*types.Package{},
	}
	for _, path := range order {
		u := units[path]
		p, err := typecheck(fset, imp, path, u.dir, u.files)
		if err != nil {
			return nil, err
		}
		p.Nested = u.nested
		if !strings.HasSuffix(path, "_test") {
			imp.pkgs[path] = p.Pkg
		}
		prog.Packages = append(prog.Packages, p)
		prog.byPath[path] = p
	}
	return prog, nil
}

// unit is one typecheck node: a package or its external test package.
type unit struct {
	dir    string
	path   string
	files  []*ast.File
	deps   []string
	nested bool
}

func parseDir(fset *token.FileSet, dir, path string, inModule func(string) bool) (*rawPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rp := &rawPkg{dir: dir, path: path}
	var baseName string
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkgName := f.Name.Name
		ext := strings.HasSuffix(name, "_test.go") && strings.HasSuffix(pkgName, "_test")
		if ext {
			rp.extFiles = append(rp.extFiles, f)
		} else {
			if baseName != "" && pkgName != baseName {
				return nil, fmt.Errorf("analysis: %s: packages %s and %s in one directory", dir, baseName, pkgName)
			}
			baseName = pkgName
			rp.files = append(rp.files, f)
		}
		for _, spec := range f.Imports {
			ip, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if inModule(ip) {
				if ext {
					rp.extDeps = append(rp.extDeps, ip)
				} else if ip != path {
					rp.deps = append(rp.deps, ip)
				}
			}
		}
	}
	if len(rp.files) == 0 && len(rp.extFiles) == 0 {
		return nil, nil
	}
	return rp, nil
}

func topoSort(units map[string]*unit) ([]string, error) {
	var order []string
	state := map[string]int{} // 0 unseen, 1 visiting, 2 done
	var visit func(path string, from string) error
	visit = func(path, from string) error {
		u, ok := units[path]
		if !ok {
			return fmt.Errorf("analysis: %s imports %s, which is not in the module", from, path)
		}
		switch state[path] {
		case 1:
			return fmt.Errorf("analysis: import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		deps := append([]string(nil), u.deps...)
		sort.Strings(deps)
		for _, d := range deps {
			if err := visit(d, path); err != nil {
				return err
			}
		}
		state[path] = 2
		order = append(order, path)
		return nil
	}
	var paths []string
	for p := range units {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p, ""); err != nil {
			return nil, err
		}
	}
	return order, nil
}

func typecheck(fset *token.FileSet, imp *moduleImporter, path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, _ := conf.Check(path, fset, files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for i, e := range errs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(errs)-i))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("analysis: typecheck %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	return &Package{Path: path, Dir: dir, Files: files, Pkg: pkg, Info: info}, nil
}

// moduleImporter resolves module-internal imports from the packages this
// load already typechecked and defers everything else (the stdlib) to the
// shared source importer, which caches across packages.
type moduleImporter struct {
	src  types.ImporterFrom
	pkgs map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return m.src.ImportFrom(path, dir, mode)
}
