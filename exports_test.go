package repro_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// unusedExportAllowlist names exports under internal/ ("pkg.Name" for a
// package-level name, "pkg.Type.Method" for a method) that no non-test code
// references but that stay on purpose, each with its reason.
var unusedExportAllowlist = map[string]string{
	"core.BatchNormLocal":          "value of the exported core.BatchNormMode enum",
	"kernels.ConvForwardBatched":   "pack-on-the-fly batched conv: the oracle the prepacked, fused serving convs are tested bitwise against",
	"nn.SaveState":                 "writes the checkpoint file that cmd/serve -checkpoint loads",
	"nn.SegMicroBatchStep":         "baseline of the micro-batch memory/time trade-off (ROADMAP item 24(c))",
	"obs.ClassNone":                "value of the exported obs.Class enum",
	"serve.PredictResponse":        "HTTP wire type of /v1/predict, for clients decoding the response",
	"serve.PriorityNormal":         "value of the exported serve.Priority enum",
	"serve.BinaryClient.SetTenant": "client API of the binary ingest protocol: tags the frames a caller sends with its quota tenant",
	"tensor.Tensor.At":             "indexed read the kernels tests check layer outputs with",
	"tensor.Tensor.At4":            "rank-4 read the kernels and core tests compare elements with",
	"tensor.Tensor.Fill":           "constant fill the kernels tests set up inputs with",
	"tensor.Tensor.MaxAbsDiff":     "bitwise-equality check of the core, data and nn tests",
	"tensor.Tensor.RelDiff":        "tolerance check of the kernels, core and nn tests",
}

// TestNoUnusedExports fails when an exported package-level func, type, var or
// const, any method, or an unexported package-level func under internal/ has
// no reference from non-test code in internal/, cmd/, examples/ or
// benchmark/. The benchmark module is in the walk, so everything it pins
// counts as used.
//
// Exported package-level names are matched syntactically: another package
// references one as pkg.Name; its own package by a bare identifier outside
// its own declaration (a type's methods count as part of its declaration).
//
// Methods and unexported funcs need types, so the non-test packages are
// type-checked from source (the standard library from export data). One
// counts as used when non-test code outside its own body refers to it (a
// call, func or method value, or method expression, promoted methods
// included), or, for a method, when its receiver satisfies an interface
// that has the method: an interface declared in the walk, or one of the
// standard ones in stdInterfaces. Struct fields are not checked.
func TestNoUnusedExports(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := parseNonTest(t, fset)
	declared := map[export]string{} // -> "file:line"
	used := map[export]bool{}
	packageLevelExports(fset, pkgs, declared, used)
	methodExports(t, fset, pkgs, declared, used)

	var unused, stale []string
	for e, pos := range declared {
		key := path.Base(e.pkg) + "." + e.name
		_, allowed := unusedExportAllowlist[key]
		if !used[e] && !allowed {
			unused = append(unused, key+" ("+pos+")")
		}
		if used[e] && allowed {
			stale = append(stale, key+" has a caller now; drop it from the allowlist")
		}
	}
	for key := range unusedExportAllowlist {
		pkg, name, _ := strings.Cut(key, ".")
		if _, ok := declared[export{"repro/internal/" + pkg, name}]; !ok {
			stale = append(stale, key+" is not declared under internal/; drop it from the allowlist")
		}
	}
	slices.Sort(unused)
	slices.Sort(stale)
	if len(unused) > 0 {
		t.Errorf("names with no non-test reference (delete them, move them into a _test.go file, or allowlist them with a reason):\n\t%s",
			strings.Join(unused, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("stale allowlist entries:\n\t%s", strings.Join(stale, "\n\t"))
	}
}

// parseNonTest parses the non-test Go files under internal/, cmd/,
// examples/ and benchmark/, keyed by import path.
func parseNonTest(t *testing.T, fset *token.FileSet) map[string][]*ast.File {
	pkgs := map[string][]*ast.File{}
	for _, root := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := "repro/" + filepath.ToSlash(filepath.Dir(p))
			pkgs[dir] = append(pkgs[dir], f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return pkgs
}

// TestLayering fails when non-test code crosses a layer boundary:
// internal/dist is pure index algebra and imports no package of this
// module, and internal/perfmodel prices redistributions with dist's
// arithmetic rather than importing the executor, internal/core.
func TestLayering(t *testing.T) {
	forbidden := map[string]func(ip string) bool{
		"repro/internal/dist":      func(ip string) bool { return strings.HasPrefix(ip, "repro/") },
		"repro/internal/perfmodel": func(ip string) bool { return ip == "repro/internal/core" },
	}
	fset := token.NewFileSet()
	pkgs := parseNonTest(t, fset)
	for pkg, bad := range forbidden {
		if len(pkgs[pkg]) == 0 {
			t.Errorf("%s has no non-test files", pkg)
		}
		for _, f := range pkgs[pkg] {
			for _, im := range f.Imports {
				if ip, _ := strconv.Unquote(im.Path.Value); bad(ip) {
					t.Errorf("%s imports %s", fset.Position(im.Pos()), ip)
				}
			}
		}
	}
}

// export names a package-level name ("Name") or a method ("Type.Method") of
// the package at import path pkg.
type export struct{ pkg, name string }

// packageLevelExports records the exported package-level names declared
// under internal/ and every syntactic reference to such a name.
func packageLevelExports(fset *token.FileSet, pkgs map[string][]*ast.File, declared map[export]string, used map[export]bool) {
	for dir, files := range pkgs {
		for _, f := range files {
			imports := map[string]string{} // local name -> import path
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				name := path.Base(ip)
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = ip
			}
			for _, decl := range f.Decls {
				for _, unit := range declUnits(decl) {
					for _, id := range unit.declares {
						if strings.HasPrefix(dir, "repro/internal/") && id.IsExported() {
							declared[export{dir, id.Name}] = fset.Position(id.Pos()).String()
						}
					}
					skip := map[*ast.Ident]bool{}
					if fd, ok := unit.node.(*ast.FuncDecl); ok {
						skip[fd.Name] = true // the func or method name declares, it does not use
					}
					ast.Inspect(unit.node, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.SelectorExpr:
							if x, ok := n.X.(*ast.Ident); ok {
								if ip, ok := imports[x.Name]; ok {
									used[export{ip, n.Sel.Name}] = true
									return false
								}
							}
							skip[n.Sel] = true // field or method, not a package-level name
						case *ast.Field:
							for _, id := range n.Names {
								skip[id] = true
							}
						case *ast.Ident:
							if !skip[n] && n.IsExported() && !slices.ContainsFunc(unit.names, func(d *ast.Ident) bool { return d.Name == n.Name }) {
								used[export{dir, n.Name}] = true
							}
						}
						return true
					})
				}
			}
		}
	}
}

// stdInterfaces are the standard-library interfaces whose methods the
// standard library calls on a value it is handed (fmt, errors, io, net/http,
// sort, container/heap, encoding/json); a method that satisfies one is used.
var stdInterfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"},
	{"net/http", "Handler"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
	{"encoding/json", "Marshaler"},
}

// methodExports type-checks the non-test packages and records the methods
// and unexported package-level funcs declared under internal/ and the ones
// that count as used.
func methodExports(t *testing.T, fset *token.FileSet, pkgs map[string][]*ast.File, declared map[export]string, used map[export]bool) {
	im := &srcImporter{fset: fset, files: pkgs, std: importer.Default(), done: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
	var checked []*types.Package
	for dir := range pkgs {
		pkg, err := im.Import(dir)
		if err != nil {
			t.Fatal(err)
		}
		checked = append(checked, pkg)
	}
	if len(im.errs) > 0 {
		t.Fatalf("type-checking the non-test packages: %v", errors.Join(im.errs...))
	}

	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	addIfaces := func(scope *types.Scope, names ...string) {
		for _, name := range names {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && !tn.IsAlias() {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for _, pkg := range checked {
		addIfaces(pkg.Scope(), pkg.Scope().Names()...)
	}
	io, err := im.std.Import("io")
	if err != nil {
		t.Fatal(err)
	}
	addIfaces(io.Scope(), io.Scope().Names()...)
	for _, si := range stdInterfaces {
		pkg, err := im.std.Import(si.pkg)
		if err != nil {
			t.Fatal(err)
		}
		addIfaces(pkg.Scope(), si.name)
	}

	// A func's own body does not keep it alive: recursion is not a use.
	body := map[*types.Func]ast.Node{}
	for _, files := range pkgs {
		for _, f := range files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fn, ok := im.info.Defs[fd.Name].(*types.Func); ok {
						body[fn] = fd
					}
				}
			}
		}
	}
	referenced := map[*types.Func]bool{}
	for id, obj := range im.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if d := body[fn]; d == nil || id.Pos() < d.Pos() || id.Pos() >= d.End() {
			referenced[fn] = true
		}
	}
	for _, pkg := range checked {
		if !strings.HasPrefix(pkg.Path(), "repro/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(name).(type) {
			case *types.Func:
				if !obj.Exported() && name != "init" {
					e := export{pkg.Path(), name}
					declared[e] = fset.Position(obj.Pos()).String()
					used[e] = referenced[obj]
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if obj.IsAlias() || !ok || types.IsInterface(named) {
					continue
				}
				for m := range named.Methods() {
					e := export{pkg.Path(), name + "." + m.Name()}
					declared[e] = fset.Position(m.Pos()).String()
					if referenced[m] || satisfiesInterfaceWith(named, m.Name(), ifaces) {
						used[e] = true
					}
				}
			}
		}
	}
}

// satisfiesInterfaceWith reports whether T or *T implements an interface in
// ifaces that has a method called method.
func satisfiesInterfaceWith(named *types.Named, method string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for m := range it.Methods() {
			if m.Name() == method && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

// srcImporter type-checks the walked packages from source, each once, into
// one shared types.Info, and hands every other import to std. Files that do
// not build on this platform (build tags, _GOOS/_GOARCH names) are left out.
type srcImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	std   types.Importer
	done  map[string]*types.Package
	info  *types.Info
	errs  []error
}

func (im *srcImporter) Import(ipath string) (*types.Package, error) {
	if pkg, ok := im.done[ipath]; ok {
		return pkg, nil
	}
	files, ok := im.files[ipath]
	if !ok {
		return im.std.Import(ipath)
	}
	var building []*ast.File
	for _, f := range files {
		name := im.fset.Position(f.Pos()).Filename
		if match, err := build.Default.MatchFile(filepath.Dir(name), filepath.Base(name)); err != nil {
			return nil, err
		} else if match {
			building = append(building, f)
		}
	}
	conf := types.Config{Importer: im, Error: func(err error) { im.errs = append(im.errs, err) }}
	pkg, _ := conf.Check(ipath, im.fset, building, im.info)
	im.done[ipath] = pkg
	return pkg, nil
}

// declUnit is one top-level declaration scope: the names it declares and the
// syntax in which a use of one of those names is a self-reference.
type declUnit struct {
	declares []*ast.Ident // package-level names it introduces
	names    []*ast.Ident // names whose use inside node is a self-reference
	node     ast.Node
}

// declUnits splits a top-level declaration into units: one per func, one per
// spec of a grouped declaration. A method is a unit of its receiver type, so
// a type is not kept alive by its own methods.
func declUnits(decl ast.Decl) []declUnit {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []declUnit{{[]*ast.Ident{d.Name}, []*ast.Ident{d.Name}, d}}
		}
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if idx, ok := recv.(*ast.IndexExpr); ok {
			recv = idx.X
		}
		var names []*ast.Ident
		if id, ok := recv.(*ast.Ident); ok {
			names = []*ast.Ident{id}
		}
		return []declUnit{{nil, names, d}}
	case *ast.GenDecl:
		var units []declUnit
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				units = append(units, declUnit{[]*ast.Ident{s.Name}, []*ast.Ident{s.Name}, s})
			case *ast.ValueSpec:
				units = append(units, declUnit{s.Names, s.Names, s})
			}
		}
		return units
	}
	return nil
}
